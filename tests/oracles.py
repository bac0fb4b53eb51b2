"""Test-side oracles, independent of the certified machinery they check.

The gcd, Yun decomposition and Sturm chain here use plain rational
arithmetic (`Fraction` Euclid and `Fraction` remainders), not the integer
pseudo-remainder sequence of `melcert.polynomials`, so they share no
algorithm with the code under test.
"""

import math


def oracle_gcd(a, b):
    """Monic gcd by the rational Euclidean algorithm (0 only if both zero)."""
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()
    return a.monic() if not a.is_zero else a


def oracle_yun(p):
    """Yun decomposition on `oracle_gcd`: [(f1, 1), (f2, 2), ...], monic,
    pairwise coprime factors, multiplicity-0 entries omitted."""
    if p.degree <= 0:
        return []
    out = []
    g = oracle_gcd(p, p.derivative())
    b = p.exact_div(g)
    c = p.derivative().exact_div(g)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        fi = oracle_gcd(b, d)
        if fi.degree > 0:
            out.append((fi, i))
        b = b.exact_div(fi)
        c = d.exact_div(fi)
        d = c - b.derivative()
        i += 1
    return out


def oracle_sturm_chain(p):
    """Sturm chain of (p, p') from rational remainders, each member scaled
    to primitive integers; ends at a constant or where a remainder
    vanishes.  Returned as integer coefficient lists, constant term first."""
    chain = [p.primitive()]
    d = p.derivative()
    if not d.is_zero:
        chain.append(d.primitive())
        while chain[-1].degree > 0:
            r = -(chain[-2] % chain[-1])
            if r.is_zero:
                break
            chain.append(r.primitive())
    return [[c.numerator for c in q.coeffs] for q in chain]


def grid_scan_count(p, lo, hi, steps):
    """Distinct-root oracle on (lo, hi]: exact signs on a uniform grid.

    Counts grid points that are exact roots plus sign changes between
    consecutive nonzero signs.  Valid whenever adjacent roots of each
    squarefree factor are separated by more than one grid step; the
    multiplicity analysis runs the scan per Yun factor (`oracle_yun`) so
    even-order roots are seen too.
    """
    total = 0
    for factor, _mult in oracle_yun(p):
        den = math.lcm(*(c.denominator for c in factor.coeffs))
        ic = [int(c * den) for c in factor.coeffs]
        deg = len(ic) - 1

        def sign_at(q):
            acc, pw = 0, 1
            for k, c in enumerate(ic):
                if c:
                    acc += c * pw * q.denominator ** (deg - k)
                pw *= q.numerator
            return (acc > 0) - (acc < 0)

        prev = sign_at(lo)
        count = 0
        if prev == 0:
            prev = None  # root at lo is excluded by the half-open convention
        for k in range(1, steps + 1):
            q = lo + (hi - lo) * k / steps
            s = sign_at(q)
            if s == 0:
                count += 1
                prev = None
            else:
                if prev is not None and s != prev:
                    count += 1
                prev = s
        total += count
    return total
