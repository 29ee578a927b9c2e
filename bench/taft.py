"""Taft algebras T_n over GF(p), built through the public homhopf API only.

T_n has basis g^a x^b (0 <= a, b < n) and relations

    g^n = 1,  x^n = 0,  x g = zeta g x,
    Delta(g) = g (x) g,  Delta(x) = x (x) 1 + g (x) x,
    eps(g) = 1,  eps(x) = 0,

for a primitive n-th root of unity zeta in GF(p), which exists exactly when
n | p - 1 (Taft, PNAS 68, 1971).  T_2 is Sweedler's H4.

Tables are plain residues (ints in [0, p)), so a whole ladder can be written
to JSON and rebuilt in a fresh interpreter.  The closed-form antipode
S(g) = g^{n-1}, S(x) = -g^{n-1} x, extended anti-multiplicatively, is computed
here from the multiplication table alone: it is the independent oracle the
solved convolution inverse is compared against.
"""

from __future__ import annotations

import random

RUNGS = (3, 4, 5)
PRIME_LIMIT = 200


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def primes_for(n: int, limit: int = PRIME_LIMIT) -> list[int]:
    """Primes p < limit with n | p - 1, so GF(p) holds the n-th roots of 1."""
    return [p for p in range(n + 1, limit)
            if _is_prime(p) and (p - 1) % n == 0]


def primitive_roots_of_unity(n: int, p: int) -> list[int]:
    """All elements of multiplicative order exactly n in GF(p)."""
    return [z for z in range(2, p) if pow(z, n, p) == 1
            and all(pow(z, k, p) != 1 for k in range(1, n))]


def basis_index(n: int, a: int, b: int) -> int:
    """Index of g^a x^b in the ordered basis."""
    return a * n + b


def basis_names(n: int) -> tuple[str, ...]:
    return tuple(f"g{a}x{b}" for a in range(n) for b in range(n))


def mult_table(n: int, p: int, zeta: int):
    """mult[i][j][k]: coefficient of e_k in e_i e_j, from
    (g^a x^b)(g^c x^d) = zeta^{bc} g^{a+c} x^{b+d}, zero once b + d >= n."""
    dim = n * n
    cube = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b + d < n:
                        k = basis_index(n, (a + c) % n, b + d)
                        cube[basis_index(n, a, b)][basis_index(n, c, d)][k] = \
                            pow(zeta, b * c, p)
    return cube


def _multiply(mult, p, u: dict, v: dict) -> dict:
    """Product of two sparse vectors {index: coeff} under a table."""
    out: dict = {}
    for i, s in u.items():
        for j, t in v.items():
            for k, c in enumerate(mult[i][j]):
                if c:
                    out[k] = (out.get(k, 0) + s * t * c) % p
    return {k: c for k, c in out.items() if c}


def _multiply_pairs(mult, p, u: dict, v: dict) -> dict:
    """Product in T (x) T of sparse vectors {(i, j): coeff}."""
    out: dict = {}
    for (i1, i2), s in u.items():
        for (j1, j2), t in v.items():
            for k1, c1 in enumerate(mult[i1][j1]):
                if not c1:
                    continue
                for k2, c2 in enumerate(mult[i2][j2]):
                    if c2:
                        key = (k1, k2)
                        out[key] = (out.get(key, 0) + s * t * c1 * c2) % p
    return {k: c for k, c in out.items() if c}


def comult_table(n: int, p: int, mult):
    """comult[i][j][k]: coefficient of e_j (x) e_k in Delta(e_i), computed as
    Delta(g)^a Delta(x)^b inside T (x) T."""
    dim = n * n
    one, g = basis_index(n, 0, 0), basis_index(n, 1, 0)
    x = basis_index(n, 0, 1)
    delta_g = {(g, g): 1}
    delta_x = {(x, one): 1, (g, x): 1}
    cube = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            acc = {(one, one): 1}
            for _ in range(a):
                acc = _multiply_pairs(mult, p, acc, delta_g)
            for _ in range(b):
                acc = _multiply_pairs(mult, p, acc, delta_x)
            for (j, k), c in acc.items():
                cube[basis_index(n, a, b)][j][k] = c
    return cube


def closed_form_antipode(n: int, p: int, mult):
    """Matrix (rows index the codomain) of S with S(g) = g^{n-1},
    S(x) = -g^{n-1} x and S(g^a x^b) = S(x)^b S(g)^a."""
    dim = n * n
    s_g = {basis_index(n, n - 1, 0): 1}
    s_x = {basis_index(n, n - 1, 1): p - 1}
    rows = [[0] * dim for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            acc = {basis_index(n, 0, 0): 1}
            for _ in range(b):
                acc = _multiply(mult, p, acc, s_x)
            for _ in range(a):
                acc = _multiply(mult, p, acc, s_g)
            for k, c in acc.items():
                rows[k][basis_index(n, a, b)] = c
    return rows


def twist_matrix(n: int, p: int, lam: int):
    """The Hopf automorphism g -> g, x -> lam x: g^a x^b -> lam^b g^a x^b."""
    dim = n * n
    rows = [[0] * dim for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            i = basis_index(n, a, b)
            rows[i][i] = pow(lam, b, p)
    return rows


def unit_row_mutation(mult, p: int, j: int, k: int, delta: int):
    """Copy of ``mult`` with delta added to mult[unit][j][k]; that entry is
    part of m(1 (x) e_j), so any delta != 0 mod p breaks the unit law."""
    if delta % p == 0:
        raise ValueError("mutation delta must be nonzero mod p")
    out = [[list(plane) for plane in slab] for slab in mult]
    out[0][j][k] = (out[0][j][k] + delta) % p
    return out


def make_rung(n: int, rng: random.Random) -> dict:
    """A seeded rung: prime, root, twist scalar, mutation site and all tables,
    as JSON-ready plain data."""
    p = rng.choice(primes_for(n))
    zeta = rng.choice(primitive_roots_of_unity(n, p))
    lam = rng.randrange(2, p)
    dim = n * n
    mult = mult_table(n, p, zeta)
    return {
        "n": n, "p": p, "zeta": zeta, "lambda": lam,
        "mult": mult,
        "comult": comult_table(n, p, mult),
        "unit": [1] + [0] * (dim - 1),
        "counit": [1 if i % n == 0 else 0 for i in range(dim)],
        "antipode": closed_form_antipode(n, p, mult),
        "twist": twist_matrix(n, p, lam),
        "mutation": {"j": rng.randrange(dim), "k": rng.randrange(dim),
                     "delta": rng.randrange(1, p)},
    }


def make_ladder(seed: int, rungs=RUNGS) -> list[dict]:
    rng = random.Random(seed)
    return [make_rung(n, rng) for n in rungs]


def hopf_from_rung(rung: dict, mult=None):
    """The classical Hopf algebra of a rung, with the closed-form antipode."""
    from homhopf import (HomAlgebra, HomBialgebra, HomCoalgebra, HomHopf,
                         LinearMap, PrimeField, Space, identity)

    field = PrimeField(rung["p"])
    sp = Space(basis_names(rung["n"]))
    ida = identity(field, sp)
    bial = HomBialgebra(
        HomAlgebra(field, sp, rung["mult"] if mult is None else mult,
                   rung["unit"], ida),
        HomCoalgebra(field, sp, rung["comult"], rung["counit"], ida),
    )
    return HomHopf(bial, LinearMap(field, sp, sp, rung["antipode"]))


def mutated_hopf(rung: dict):
    m = rung["mutation"]
    return hopf_from_rung(rung, unit_row_mutation(
        rung["mult"], rung["p"], m["j"], m["k"], m["delta"]))


def twist_map(rung: dict):
    from homhopf import LinearMap, PrimeField, Space

    sp = Space(basis_names(rung["n"]))
    return LinearMap(PrimeField(rung["p"]), sp, sp, rung["twist"])


def export_struct(rung: dict, mutated: bool = False) -> str:
    """Canonical .struct text of a rung's Hopf algebra (or its mutation)."""
    from homhopf import DocumentBuilder

    h = mutated_hopf(rung) if mutated else hopf_from_rung(rung)
    builder = DocumentBuilder(h.field)
    builder.add_hom_hopf(f"T{rung['n']}", h)
    return builder.to_text()
