"""Self-checks of the Taft generator: python3 bench/check_taft.py

Each rung must pass its axiom checks, the solved antipode must equal the
closed form, the twist must be accepted and the unit-row mutation must break
the unit law.  The T_5 solve is left to the benchmark's own gate, which
runs it on every ladder pass.
"""

from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import taft  # noqa: E402
from homhopf import (  # noqa: E402
    check_antipode,
    check_hom_bialgebra,
    convolution_inverse,
    identity,
    parse,
    yau_twist,
)


def _product(rung, i, j):
    """e_i e_j as a sparse vector {index: coeff}."""
    return {k: c for k, c in enumerate(rung["mult"][i][j]) if c}


class TaftTables(unittest.TestCase):

    def test_primes_and_roots(self):
        for n in taft.RUNGS:
            primes = taft.primes_for(n)
            self.assertTrue(primes)
            for p in primes:
                self.assertTrue(taft._is_prime(p))
                self.assertEqual((p - 1) % n, 0)
                roots = taft.primitive_roots_of_unity(n, p)
                self.assertTrue(roots)
                for z in roots:
                    orders = [k for k in range(1, n + 1) if pow(z, k, p) == 1]
                    self.assertEqual(orders[0], n)

    def test_defining_relations(self):
        for n in (2, 3, 4, 5):
            rung = taft.make_rung(n, random.Random(n))
            p, zeta = rung["p"], rung["zeta"]
            one, g, x = (taft.basis_index(n, 0, 0), taft.basis_index(n, 1, 0),
                         taft.basis_index(n, 0, 1))
            gx = taft.basis_index(n, 1, 1)
            self.assertEqual(_product(rung, x, g), {gx: zeta % p})
            self.assertEqual(_product(rung, g, x), {gx: 1})
            power_g, power_x = {one: 1}, {one: 1}
            for _ in range(n):
                power_g = taft._multiply(rung["mult"], p, power_g, {g: 1})
                power_x = taft._multiply(rung["mult"], p, power_x, {x: 1})
            self.assertEqual(power_g, {one: 1})
            self.assertEqual(power_x, {})
            delta_x = {(j, k): c for j, slab in enumerate(rung["comult"][x])
                       for k, c in enumerate(slab) if c}
            self.assertEqual(delta_x, {(x, one): 1, (g, x): 1})

    def test_seed_fixes_the_ladder(self):
        self.assertEqual(taft.make_ladder(7), taft.make_ladder(7))
        self.assertEqual([r["n"] for r in taft.make_ladder(7)],
                         list(taft.RUNGS))


class TaftHopf(unittest.TestCase):

    def test_rungs_pass_their_checks(self):
        for n in (2, 3, 4, 5):
            h = taft.hopf_from_rung(taft.make_rung(n, random.Random(10 + n)))
            self.assertTrue(check_hom_bialgebra(h.bialgebra).passed, n)
            self.assertTrue(check_antipode(h).passed, n)

    def test_solved_antipode_is_the_closed_form(self):
        for n in (2, 3, 4):
            h = taft.hopf_from_rung(taft.make_rung(n, random.Random(20 + n)))
            solved = convolution_inverse(identity(h.field, h.space),
                                         h.coalgebra, h.algebra)
            self.assertEqual(solved, h.antipode, n)

    def test_twist_is_accepted(self):
        rung = taft.make_rung(3, random.Random(3))
        phi = taft.twist_map(rung)
        twisted = yau_twist(taft.hopf_from_rung(rung), phi)
        self.assertEqual(twisted.alpha, phi)

    def test_unit_row_mutation_breaks_the_unit_law(self):
        for seed in range(4):
            rung = taft.make_rung(3, random.Random(seed))
            report = check_hom_bialgebra(taft.mutated_hopf(rung).bialgebra)
            self.assertFalse(report.passed)
            unit_law = report.find("left_unit_law")
            self.assertFalse(unit_law.passed)
            j = rung["mutation"]["j"]
            self.assertEqual(unit_law.witness.basis,
                             (taft.basis_names(3)[j],))
            self.assertNotEqual(unit_law.witness.lhs, unit_law.witness.rhs)

    def test_zero_delta_is_rejected(self):
        rung = taft.make_rung(3, random.Random(0))
        with self.assertRaises(ValueError):
            taft.unit_row_mutation(rung["mult"], rung["p"], 0, 0, rung["p"])

    def test_struct_export_round_trips(self):
        rung = taft.make_rung(3, random.Random(5))
        text = taft.export_struct(rung)
        sf = parse(text)
        self.assertEqual(sf.bundles["T3"], taft.hopf_from_rung(rung))


if __name__ == "__main__":
    unittest.main()
