import time
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linkrep.obstructions import (
    COMPACT_ENERGIES,
    MR_EXACT_BOUND,
    BundleProfile,
    ObstructionReport,
    bundle_profile,
    connected_sum_obstruction,
    divisibility_obstruction,
    _prime_factors,
    _splitting_exists,
    pontryagin_square_diag,
)


def min_terms_dp(limit: int) -> list:
    """Reference: min_terms[s] is the least number of nonzero terms l(l-1)
    summing to s (a coin problem), for 0 <= s < limit; unreachable sums get
    `limit`."""
    coins = [l * (l - 1) for l in range(2, limit) if l * (l - 1) < limit]
    min_terms = [0] + [limit] * (limit - 1)
    for s in range(1, limit):
        best = min((min_terms[s - c] for c in coins if c <= s), default=limit)
        min_terms[s] = min(best + 1, limit)
    return min_terms


def two_squares_scan(c2: int) -> bool:
    """Reference for b2 = 2: is 2 c2 + 1 a sum of two squares?  An O(sqrt(c2))
    scan over the first square."""
    if c2 < 0:
        return False
    n = 2 * c2 + 1
    return any(isqrt(n - a * a) ** 2 == n - a * a for a in range(isqrt(n) + 1))


class TestPontryaginSquare:
    def test_characteristic_class_examples(self):
        assert pontryagin_square_diag([1, 1, 1, 1]) == 0
        assert pontryagin_square_diag([1]) == 3
        assert pontryagin_square_diag([1, 1]) == 2
        assert pontryagin_square_diag([2, 0]) == 0

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            pontryagin_square_diag([])

    @given(st.lists(st.integers(-10, 10), min_size=1, max_size=8))
    def test_depends_only_on_mod2_reduction(self, c):
        shifted = [ci + 2 for ci in c]
        assert pontryagin_square_diag(c) == pontryagin_square_diag(shifted)

    @given(st.lists(st.integers(-10, 10), min_size=1, max_size=8))
    def test_residue_range(self, c):
        assert pontryagin_square_diag(c) in (0, 1, 2, 3)


class TestDivisibility:
    def test_multiples_of_four_pass(self):
        for b2 in (4, 8, 12, 100):
            rep = divisibility_obstruction(b2)
            assert rep.divisibility_pass and rep.psq == 0

    def test_others_fail_with_residue(self):
        assert divisibility_obstruction(1).psq == 3
        assert divisibility_obstruction(2).psq == 2
        assert divisibility_obstruction(3).psq == 1
        assert not divisibility_obstruction(5).divisibility_pass

    def test_b2_must_be_positive(self):
        with pytest.raises(ValueError):
            divisibility_obstruction(0)


class TestConnectedSum:
    def test_all_passing_summands(self):
        rep = connected_sum_obstruction([4, 8, 0])
        assert rep.divisibility_pass
        assert rep.psq == 0
        assert rep.summand_verdicts == ((4, True), (8, True), (0, True))

    def test_four_copies_of_b2_one_fail(self):
        # summand-wise check: [1,1,1,1] fails even though the total is 4
        rep = connected_sum_obstruction([1, 1, 1, 1])
        assert not rep.divisibility_pass
        assert rep.psq == 3
        assert all(not ok for _, ok in rep.summand_verdicts)

    def test_first_failing_summand_sets_residue(self):
        rep = connected_sum_obstruction([4, 2, 1])
        assert not rep.divisibility_pass
        assert rep.psq == 2

    def test_negative_summand_rejected(self):
        with pytest.raises(ValueError):
            connected_sum_obstruction([4, -1])

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            ObstructionReport(psq=2, divisibility_pass=True)


class TestBundleProfile:
    def test_flat_irreducible_profile(self):
        p = bundle_profile(b1=1, b2=4, c2=-1)
        assert p.c1sq == -4
        assert p.p1 == 0
        assert p.energy == 0
        assert p.flat and p.compact
        assert p.irreducible_locked
        assert p.d == 0

    def test_reducible_profile(self):
        # c2 = 0 splits as four zero terms: the lock is open
        p = bundle_profile(b1=1, b2=4, c2=0)
        assert not p.irreducible_locked
        assert p.energy == 1
        assert not p.compact
        assert p.p1 == -4

    def test_splitting_witnesses(self):
        # c2 = 2 = 2 + 0 + 0 + 0 comes from l = (2, 1, 1, 1) -> l(l-1) = (2,0,0,0)
        assert not bundle_profile(1, 4, 2).irreducible_locked
        # c2 = 8 = 6 + 2 comes from two nonzero terms, fits in b2 = 4
        assert not bundle_profile(1, 4, 8).irreducible_locked
        # c2 = 1 and any negative c2 admit no splitting
        assert bundle_profile(1, 4, 1).irreducible_locked
        assert bundle_profile(1, 4, -3).irreducible_locked

    def test_splitting_respects_term_budget(self):
        # c2 = 4 = 2 + 2 needs two terms: locked at b2 = 1, open at b2 = 2
        assert bundle_profile(1, 1, 4).irreducible_locked
        assert not bundle_profile(1, 2, 4).irreducible_locked

    def test_energy_window(self):
        assert COMPACT_ENERGIES == (
            Fraction(0),
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(3, 4),
        )
        # b2 = 1: energies c2 + 1/4 hit the window for c2 = 0
        assert bundle_profile(1, 1, 0).compact
        assert not bundle_profile(1, 1, 1).compact
        # b2 = 2: c2 + 1/2
        assert bundle_profile(1, 2, 0).compact

    def test_flat_forces_p1_zero_and_b2_mult_of_four(self):
        for b2 in range(1, 13):
            for c2 in range(-4, 5):
                p = bundle_profile(1, b2, c2)
                if p.flat:
                    assert p.p1 == 0
                    assert b2 % 4 == 0
                assert p.energy == Fraction(-p.p1, 4)

    def test_expected_dimension(self):
        assert bundle_profile(1, 4, -1).d == 0
        assert bundle_profile(2, 4, -1).d == 3
        assert bundle_profile(1, 4, 0).d == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            bundle_profile(1, 0, 0)
        with pytest.raises(ValueError):
            bundle_profile(-1, 4, 0)

    def test_energy_is_exact_fraction(self):
        p = bundle_profile(1, 3, 0)
        assert isinstance(p.energy, Fraction)
        assert p.energy == Fraction(3, 4)
        assert p.compact


class TestSplittingClosedForm:
    def test_matches_the_coin_dp(self):
        limit = 1500
        min_terms = min_terms_dp(limit)
        for b2 in (1, 2, 3, 4, 9):
            for c2 in range(-3, limit):
                expected = c2 >= 0 and min_terms[c2] <= b2
                assert _splitting_exists(b2, c2) == expected, (b2, c2)

    def test_two_squares_matches_the_scan(self):
        for c2 in range(-3, 5000):
            assert _splitting_exists(2, c2) == two_squares_scan(c2), c2

    @given(st.integers(1, 10**10))
    def test_prime_factors_multiply_back_to_primes(self, n):
        factors = _prime_factors(n)
        assert prod(factors) == n
        for p in factors:
            assert p > 1 and all(p % k for k in range(2, isqrt(p) + 1))

    @pytest.mark.parametrize(
        "n, factors",
        [
            (3**2 * 7**3 * 11, [3, 3, 7, 7, 7, 11]),
            (999983 * 1000003, [999983, 1000003]),  # two six-digit primes
            (2147483647**2, [2147483647, 2147483647]),  # a prime square
            (3825123056546413051, [149491, 747451, 34233211]),  # strong pseudoprime to 2..23
        ],
    )
    def test_prime_factors_of_hard_cases(self, n, factors):
        assert sorted(_prime_factors(n)) == factors

    def test_b2_two_with_large_c2_is_prompt(self, capsys):
        from linkrep.cli import main

        start = time.perf_counter()
        assert main(["bundle", "--b1", "0", "--b2", "2", "--c2", "100000000000000"]) == 0
        assert time.perf_counter() - start < 1.0
        # 2 c2 + 1 = 3 * 17 * 1873 * 41161 * 50867: 3 divides it to an odd power
        assert '"irreducible_locked": true' in capsys.readouterr().out

    def test_b2_two_is_bounded_to_the_proven_range(self):
        c2 = (MR_EXACT_BOUND - 1) // 2  # 2 c2 + 1 is the bound itself
        with pytest.raises(ValueError, match="decided only"):
            _splitting_exists(2, c2)
        with pytest.raises(ValueError):
            bundle_profile(0, 2, c2)
        # just below: 2 c2 + 1 = 3 (mod 4) is no sum of two squares
        assert _splitting_exists(2, c2 - 1) is False
        # the other term budgets are closed forms without a bound
        assert _splitting_exists(1, 10**40) is False
        assert _splitting_exists(3, 10**40) is True

    def test_b2_two_beyond_the_bound_exits_two_promptly(self, capsys):
        from linkrep.cli import main

        # 2 c2 + 1 = 1000000000000037 * 3000000000000037, which Pollard rho
        # did not split within 20 s
        start = time.perf_counter()
        code = main(
            ["bundle", "--b1", "0", "--b2", "2", "--c2", "1500000000000074000000000000684"]
        )
        assert code == 2
        assert time.perf_counter() - start < 1.0
        assert "decided only" in capsys.readouterr().err

    def test_large_c2_is_prompt(self, capsys):
        from linkrep.cli import main

        start = time.perf_counter()
        assert main(["bundle", "--b1", "1", "--b2", "4", "--c2", "1000000"]) == 0
        assert time.perf_counter() - start < 1.0
        assert '"irreducible_locked": false' in capsys.readouterr().out


class TestHugeB2:
    def test_obstruct_is_prompt(self, capsys):
        from linkrep.cli import main

        main(["obstruct", "--b2", "4"])  # the parser is built outside the clock
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["obstruct", "--b2", str(10**18)]) == 0
        assert main(["obstruct", "--summands", f"3,{10**18 + 1}"]) == 1
        assert time.perf_counter() - start < 0.1
        first, second = capsys.readouterr().out.split("}\n{")
        assert '"psq": 0' in first
        assert '"psq": 1' in second  # the first failing summand, b2 = 3


class TestClosedFormResidue:
    def test_equals_the_all_ones_class(self):
        from linkrep.cli import _diagram_obstructions

        for b2 in range(1, 40):
            psq = pontryagin_square_diag([1] * b2)
            assert divisibility_obstruction(b2).psq == psq
            assert connected_sum_obstruction([4, b2]).psq == (0 if b2 % 4 == 0 else psq)
            assert _diagram_obstructions(b2)["psq"] == psq
