"""Constructive factorizations: each result recomposes exactly to its target and
every factor carries a class expression it provably belongs to.

Choice points left open by the underlying existence arguments are fixed by the
canonical greedy chain partition, so outputs are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import structure
from .algebra import member
from .exprs import (
    And,
    Av,
    ClassExpr,
    HorizK,
    IncK,
    LayeredK,
    Vert,
    VertK,
    render,
)
from .perms import (
    Permutation,
    compose,
    compose_all,
    decreasing,
    direct_sum,
    direct_sum_all,
    greedy_increasing_chains,
    inverse,
    lds,
    to_text,
)


class FactorizationError(RuntimeError):
    """A constructed factorization failed its own verification; signals a bug."""


@dataclass(frozen=True)
class Factor:
    perm: Permutation
    cls: ClassExpr

    def to_json(self) -> dict:
        return {"perm": list(self.perm.values), "class": render(self.cls)}


@dataclass(frozen=True)
class Factorization:
    """An ordered product of certified class members equal to the target."""

    target: Permutation
    factors: tuple[Factor, ...]

    def recompose(self) -> Permutation:
        return compose_all([f.perm for f in self.factors])

    def verify(self) -> None:
        """Raise FactorizationError unless recomposition and memberships hold."""
        got = self.recompose()
        if got != self.target:
            raise FactorizationError(
                f"recomposition {to_text(got)} differs from target {to_text(self.target)}"
            )
        for f in self.factors:
            if not member(f.cls, f.perm):
                raise FactorizationError(f"factor {to_text(f.perm)} not in {render(f.cls)}")

    def to_json(self) -> dict:
        return {
            "target": list(self.target.values),
            "factors": [f.to_json() for f in self.factors],
        }


def _chain_values(p: Permutation) -> list[list[int]]:
    return [[p.values[i - 1] for i in chain] for chain in greedy_increasing_chains(p)]


def decompose_vk_hk(p: Permutation, k: int) -> Factorization:
    """Split p into a k-segment concatenation followed by a k-range interleaving.

    The left factor concatenates the canonical increasing chains of p; the
    right factor is the unique completion.
    """
    if lds(p) > k:
        raise ValueError(f"{to_text(p)} needs more than {k} increasing chains")
    chains = _chain_values(p)
    nu_vals: list[int] = []
    for chain in chains:
        nu_vals.extend(chain)
    nu = Permutation(nu_vals)
    eta = compose(inverse(nu), p)
    out = Factorization(p, (Factor(nu, VertK(k)), Factor(eta, HorizK(k))))
    out.verify()
    return out


def decompose_ik_il(p: Permutation, k: int, l: int) -> Factorization:
    """Write p, coverable by k+l-1 increasing chains, as a product of a k-chain
    and an l-chain permutation.

    The values of chains k+1..k+l-1 are sorted into a single increasing run that
    extends chain k inside the left factor; the right factor is the completion.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be at least 1")
    if lds(p) > k + l - 1:
        raise ValueError(f"{to_text(p)} needs more than {k + l - 1} increasing chains")
    chains = _chain_values(p)
    first = chains[:k]
    rest = chains[k:]
    keep = set()
    for chain in first:
        keep.update(chain)
    a_vals = [v for v in p.values if v in keep]
    anchor = set(chains[k - 1]) if len(chains) >= k else set()
    c_vals = sorted(v for chain in rest for v in chain)
    sigma_vals: list[int] = []
    ci = 0
    for v in a_vals:
        if v in anchor:
            while ci < len(c_vals) and c_vals[ci] < v:
                sigma_vals.append(c_vals[ci])
                ci += 1
        sigma_vals.append(v)
    sigma_vals.extend(c_vals[ci:])
    sigma = Permutation(sigma_vals)
    tau = compose(inverse(sigma), p)
    out = Factorization(p, (Factor(sigma, IncK(k)), Factor(tau, IncK(l))))
    out.verify()
    return out


def decompose_l4(p: Permutation, k: int) -> Factorization:
    """Factor a layered permutation with at most k >= 4 layers through layered
    classes with k-1, k-2 and k-1 layers, by regrouping the first four layers."""
    if k < 4:
        raise ValueError("k must be at least 4")
    lengths = structure.layers(p)
    if lengths is None:
        raise structure.NotLayeredError(f"{to_text(p)} is not layered")
    if len(lengths) > k:
        raise ValueError(f"{to_text(p)} has more than {k} layers")
    n = len(p)
    if len(lengths) < k:
        factors = (
            Factor(p, LayeredK(k - 1)),
            Factor(decreasing(n), LayeredK(k - 2)),
            Factor(decreasing(n), LayeredK(k - 1)),
        )
    else:
        a, b, c, d = lengths[:4]
        tail = direct_sum_all(decreasing(l) for l in lengths[4:])
        f1 = direct_sum_all(
            [decreasing(a + b), decreasing(c), decreasing(d), tail]
        )
        f2 = direct_sum_all([decreasing(a + b), decreasing(c + d), tail])
        f3 = direct_sum_all(
            [decreasing(a), decreasing(b), decreasing(c + d), tail]
        )
        factors = (
            Factor(f1, LayeredK(k - 1)),
            Factor(f2, LayeredK(k - 2)),
            Factor(f3, LayeredK(k - 1)),
        )
    out = Factorization(p, factors)
    out.verify()
    return out


def decompose_thm52(
    p: Permutation, alpha: Permutation, beta_len: int, gamma: Permutation
) -> Factorization:
    """Factor an avoider of alpha + (decreasing run) + gamma into a two-segment
    concatenation and a two-range interleaving, via the guaranteed value split.

    For beta_len = 1 the avoidance constraint on the left factor is implied and
    its class drops the intersection.
    """
    if beta_len < 1:
        raise ValueError("beta_len must be positive")
    beta = decreasing(beta_len)
    a_vals, c_vals = structure.jv_split(p, alpha, beta, gamma)
    nu_vals = list(a_vals) + list(c_vals)
    nu = Permutation(nu_vals)
    eta = compose(inverse(nu), p)
    ab = direct_sum(alpha, beta)
    bg = direct_sum(beta, gamma)
    vert = Vert((Av((ab,)), Av((bg,))))
    if beta_len == 1:
        left: ClassExpr = vert
    else:
        whole = direct_sum(ab, gamma)
        left = And((vert, Av((whole,))))
    out = Factorization(p, (Factor(nu, left), Factor(eta, HorizK(2))))
    out.verify()
    return out
