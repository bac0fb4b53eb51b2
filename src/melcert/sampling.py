"""Deterministic random instances: dyadic rationals keep everything exact."""

from __future__ import annotations

import random
from fractions import Fraction

from .intervals import as_rational
from .melnikov import PerturbCoeffs, SystemFamily

COEFF_DENOM_BITS = 20
ALPHA_DENOM_BITS = 10


def rng_for(seed: int, index: int = 0) -> random.Random:
    """Stable per-sample generator: reruns reproduce streams exactly."""
    return random.Random(f"melcert:{seed}:{index}")


def draw_dyadic(rng: random.Random, bound, denom_bits: int) -> Fraction:
    """Uniform dyadic rational in [-bound, bound] at fixed denominator."""
    bound = as_rational(bound)
    scale = 1 << denom_bits
    top = int(bound * scale)
    return Fraction(rng.randint(-top, top), scale)


def draw_alpha(rng: random.Random, bound=Fraction(2)) -> Fraction:
    """Nonzero dyadic rational in [-bound, bound]."""
    while True:
        value = draw_dyadic(rng, bound, ALPHA_DENOM_BITS)
        if value != 0:
            return value


def draw_family(
    rng: random.Random, m1: int, m2: int, confluent: bool = False
) -> SystemFamily:
    if confluent:
        alpha = draw_alpha(rng)
        return SystemFamily(alpha, alpha, m1, m2)
    alpha1 = draw_alpha(rng)
    while True:
        alpha2 = draw_alpha(rng)
        if alpha2 != alpha1:
            return SystemFamily(alpha1, alpha2, m1, m2)


def draw_coeffs(rng: random.Random, n: int, box=Fraction(1)) -> PerturbCoeffs:
    """Full coefficient grid sampled uniformly from the box."""
    box = as_rational(box)
    a, b = {}, {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            a[(i, j)] = draw_dyadic(rng, box, COEFF_DENOM_BITS)
            b[(i, j)] = draw_dyadic(rng, box, COEFF_DENOM_BITS)
    return PerturbCoeffs(n=n, a=a, b=b, box=box)
