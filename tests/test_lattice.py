import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forge.arith import GaussianRational
from theta_forge.lattice import (
    CATALOG,
    CongruenceClass,
    EnumerationBudgetError,
    InsertionVector,
    InvalidFormError,
    QuadraticForm,
    catalog_form,
    enumerate_congruence,
    enumerate_upto,
    first_root,
    gauss_sum,
    insertion_histogram,
    load_form,
    minimal_vector,
    unit_insertion_vector,
)

from oracles import (
    box_enumerate,
    gauss_sum_bruteforce,
    insertion_norm_loop,
    integral_weights_loop,
    kronecker_euler,
    quad_value_twice,
)

_CATALOG_FORMS = {name: catalog_form(name) for name in CATALOG}


class TestValidation:
    def test_not_square(self):
        with pytest.raises(InvalidFormError) as e:
            QuadraticForm([[2, 0]])
        assert e.value.code == "not-square"

    def test_not_integer(self):
        with pytest.raises(InvalidFormError) as e:
            QuadraticForm([[2.0, 0], [0, 2]])
        assert e.value.code == "not-integer"

    def test_not_symmetric(self):
        with pytest.raises(InvalidFormError) as e:
            QuadraticForm([[2, 1], [0, 2]])
        assert e.value.code == "not-symmetric"

    def test_odd_diagonal(self):
        # the identity matrix is integral but its form is odd
        with pytest.raises(InvalidFormError) as e:
            QuadraticForm([[1, 0], [0, 1]])
        assert e.value.code == "odd-diagonal"

    def test_odd_rank(self):
        with pytest.raises(InvalidFormError) as e:
            QuadraticForm([[2]])
        assert e.value.code == "odd-rank"

    def test_not_positive_definite(self):
        with pytest.raises(InvalidFormError) as e:
            QuadraticForm([[2, 3], [3, 2]])
        assert e.value.code == "not-positive-definite"
        with pytest.raises(InvalidFormError):
            QuadraticForm([[0, 0], [0, 0]])

    def test_bool_entries_rejected(self):
        with pytest.raises(InvalidFormError):
            QuadraticForm([[True, 0], [0, 2]])


class TestCatalog:
    def test_membership(self):
        assert set(CATALOG) == {"A2", "A1A1", "2A2", "D4", "E8"}

    @pytest.mark.parametrize(
        "name,rank,det,level",
        [
            ("A2", 2, 3, 3),
            ("A1A1", 2, 4, 4),
            ("2A2", 2, 12, 6),
            ("D4", 4, 4, 2),
            ("E8", 8, 1, 1),
        ],
    )
    def test_invariants(self, name, rank, det, level):
        form = catalog_form(name)
        assert form.rank == rank
        assert form.det == det
        assert form.level == level

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog_form("Z9")

    def test_load_form(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"gram": [[2, -1], [-1, 2]]}')
        assert load_form(path) == catalog_form("A2")


class TestFormBasics:
    def test_q_and_bilinear(self):
        a2 = catalog_form("A2")
        assert a2.q_value((1, 0)) == 1
        assert a2.q_value((1, 1)) == 1
        assert a2.q_value((1, -1)) == 3
        assert a2.bilinear((1, 0), (0, 1)) == -1

    def test_level_is_minimal(self):
        # no proper divisor of the level keeps N A^-1 integral even
        for name in CATALOG:
            form = catalog_form(name)
            N = form.level
            for d in range(1, N):
                if N % d:
                    continue
                scaled = [[d * x for x in row] for row in form.inverse_gram]
                ok = all(x.denominator == 1 for row in scaled for x in row) and all(
                    int(scaled[i][i]) % 2 == 0 for i in range(form.rank)
                )
                assert not ok, f"{name}: divisor {d} already works"

    def test_character_values(self):
        a2 = catalog_form("A2")
        assert a2.character(1) == 1
        assert a2.character(2) == -1  # (-3 | 2)
        assert a2.character(3) == 0
        e8 = catalog_form("E8")
        for n in range(1, 12):
            assert e8.character(n) == 1

    @given(st.integers(1, 200), st.integers(1, 200))
    @settings(max_examples=80, deadline=None)
    def test_character_multiplicative(self, m, n):
        d4 = catalog_form("D4")
        assert d4.character(m * n) == d4.character(m) * d4.character(n)

    def test_character_matches_kronecker(self):
        # sign convention: (-1)^(f/2) det under the symbol
        for name in ("A2", "A1A1", "2A2", "D4"):
            form = catalog_form(name)
            disc = (-1) ** (form.rank // 2) * form.det
            for n in range(1, 30):
                assert form.character(n) == kronecker_euler(disc, n)

    def test_dual_form(self):
        a2 = catalog_form("A2")
        dual = a2.dual()
        assert dual.gram == ((2, 1), (1, 2))
        assert dual.det == 3
        e8 = catalog_form("E8")
        assert e8.dual().det == 1

    def test_eq_hash(self):
        assert catalog_form("A2") == QuadraticForm([[2, -1], [-1, 2]])
        assert hash(catalog_form("D4")) == hash(catalog_form("D4"))


class TestEnumeration:
    @pytest.mark.parametrize("name,bound", [("A2", 10), ("A1A1", 10), ("2A2", 10), ("D4", 6)])
    def test_matches_box_scan(self, name, bound):
        form = catalog_form(name)
        assert enumerate_upto(form, bound) == box_enumerate(form.gram, bound)

    def test_root_counts(self):
        assert len([m for m in enumerate_upto(catalog_form("A2"), 1) if any(m)]) == 6
        assert len([m for m in enumerate_upto(catalog_form("D4"), 1) if any(m)]) == 24
        assert len([m for m in enumerate_upto(catalog_form("E8"), 1) if any(m)]) == 240

    def test_rootless_form(self):
        m = catalog_form("2A2")
        assert first_root(m) is None
        vec, mu = minimal_vector(m)
        assert mu == 2
        assert m.q_value(vec) == 2

    def test_zero_vector_included(self):
        assert (0, 0) in enumerate_upto(catalog_form("A2"), 0)

    def test_budget_error(self):
        with pytest.raises(EnumerationBudgetError):
            insertion_histogram(catalog_form("E8"), 10 ** 7)


class TestCongruenceClasses:
    def test_class_counts_match_det(self):
        for name in ("A2", "A1A1", "2A2", "D4", "E8"):
            form = catalog_form(name)
            assert len(form.congruence_classes()) == form.det

    def test_a2_classes(self):
        reps = {c.rep for c in catalog_form("A2").congruence_classes()}
        assert reps == {(0, 0), (1, 2), (2, 1)}

    def test_invalid_class_rejected(self):
        a2 = catalog_form("A2")
        with pytest.raises(ValueError):
            CongruenceClass(a2, (1, 0))  # A h not 0 mod 3

    def test_rep_normalized(self):
        a2 = catalog_form("A2")
        c = CongruenceClass(a2, (4, -1))
        assert c.rep == (1, 2)

    def test_zero_class(self):
        assert CongruenceClass.zero(catalog_form("D4")).rep == (0, 0, 0, 0)

    def test_enumerate_congruence(self):
        a2 = catalog_form("A2")
        got = enumerate_congruence(a2, (1, 2), 1)  # exponent Q/9 up to 1
        # brute force: all m = (1,2) mod 3 with Q(m) <= 9
        expect = sorted(
            m
            for m in box_enumerate(a2.gram, 9)
            if (m[0] - 1) % 3 == 0 and (m[1] - 2) % 3 == 0
        )
        assert sorted(got) == expect
        assert min(Fraction(a2.q_value(m), 9) for m in got) == Fraction(1, 3)

    def test_enumerate_congruence_zero_class(self):
        a2 = catalog_form("A2")
        got = enumerate_congruence(a2, (0, 0), 1)
        assert sorted(got) == sorted(
            m for m in box_enumerate(a2.gram, 9) if m[0] % 3 == 0 and m[1] % 3 == 0
        )


class TestInsertionVector:
    def test_from_root_is_unit(self):
        a2 = catalog_form("A2")
        v = InsertionVector.from_root((1, 0))
        assert v.s == Fraction(1, 2)
        assert v.norm(a2) == 1
        assert v.is_unit(a2)

    def test_unit_for_rootless(self):
        m = catalog_form("2A2")
        v = unit_insertion_vector(m)
        assert v.norm(m) == 1
        assert v.s == Fraction(1, 4)

    def test_null_vector(self):
        a11 = catalog_form("A1A1")
        v = InsertionVector((GaussianRational(1), GaussianRational(0, 1)), Fraction(1))
        assert v.is_null(a11)
        assert v.norm(a11) == GaussianRational(0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            InsertionVector((1, 0), Fraction(-1, 2))
        with pytest.raises(ValueError):
            InsertionVector((1, 0), 0)

    def test_integral_weights_real(self):
        a2 = catalog_form("A2")
        v = InsertionVector((Fraction(1, 2), Fraction(1, 3)), 1)
        den, rows = v.integral_weights(a2)
        assert len(rows) == 1
        # den * w'A must be integral
        wa = [Fraction(1, 2) * 2 + Fraction(1, 3) * (-1), Fraction(1, 2) * (-1) + Fraction(1, 3) * 2]
        assert all(den * x == int(den * x) for x in wa)
        assert tuple(int(den * x) for x in wa) == rows[0]

    def test_integral_weights_gaussian(self):
        a11 = catalog_form("A1A1")
        v = InsertionVector((GaussianRational(1), GaussianRational(0, 1)), 1)
        den, rows = v.integral_weights(a11)
        # w'A = (2, 2i): one real row and one imaginary row
        assert den == 1
        assert rows == ((2, 0), (0, 2))

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(CATALOG)),
        gaussian=st.booleans(),
        s=st.builds(Fraction, st.integers(1, 6), st.integers(1, 6)),
        data=st.data(),
    )
    def test_matches_gaussian_loops(self, name, gaussian, s, data):
        form = _CATALOG_FORMS[name]
        small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
        part = st.builds(GaussianRational, small, small if gaussian else st.just(0))
        w = data.draw(st.lists(part, min_size=form.rank, max_size=form.rank))
        v = InsertionVector(w, s)
        assert v.integral_weights(form) == integral_weights_loop(form.gram, v.w)
        norm = v.norm(form)
        assert (norm.re, norm.im) == insertion_norm_loop(form.gram, v.w, v.s)

    def test_wrong_length_rejected(self):
        a2 = catalog_form("A2")
        with pytest.raises(ValueError):
            InsertionVector((1, 0, 0)).norm(a2)
        with pytest.raises(ValueError):
            a2.q_value((1, 0, 0))


class TestHistogram:
    def test_plain_counts_match_box(self):
        a2 = catalog_form("A2")
        cells = insertion_histogram(a2, 6)
        box = box_enumerate(a2.gram, 6)
        for e in range(7):
            expect = sum(1 for m in box if quad_value_twice(a2.gram, m) == 2 * e)
            assert cells.get((e,), 0) == expect

    def test_weighted_counts_match_brute(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        den, rows = v.integral_weights(a2)
        cells = insertion_histogram(a2, 5, weights=rows)
        brute = {}
        for m in box_enumerate(a2.gram, 5):
            key = (
                quad_value_twice(a2.gram, m) // 2,
                sum(r * x for r, x in zip(rows[0], m)),
            )
            brute[key] = brute.get(key, 0) + 1
        assert cells == brute

    def test_plain_projection_from_weighted_cache(self):
        a2 = catalog_form("A2")
        v = unit_insertion_vector(a2)
        _, rows = v.integral_weights(a2)
        insertion_histogram(a2, 8, weights=rows)
        for bound in (8, 5):  # 5 also filters the weighted entry by bound
            projected = insertion_histogram(a2, bound)  # served from the weighted entry
            fresh = insertion_histogram(catalog_form("A2"), bound)
            assert projected == fresh

    def test_form_owns_its_histograms(self, monkeypatch):
        import theta_forge.lattice as lattice

        calls = []
        leaf_chunks = lattice._leaf_chunks

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return leaf_chunks(*args, **kwargs)

        monkeypatch.setattr(lattice, "_leaf_chunks", counting)
        a2 = catalog_form("A2")
        first = insertion_histogram(a2, 6)
        assert len(calls) == 1
        assert insertion_histogram(a2, 6) == first  # kept on the form
        assert len(calls) == 1
        twin = catalog_form("A2")
        assert twin == a2
        assert insertion_histogram(twin, 6) == first  # an equal form builds its own
        assert len(calls) == 2
        assert a2.dual() is a2.dual()  # so the dual's histograms stay with a2 too

    def test_cache_serves_smaller_bounds(self):
        d4 = catalog_form("D4")
        big = insertion_histogram(d4, 9)
        small = insertion_histogram(d4, 4)
        assert small == {k: v for k, v in big.items() if k[0] <= 4}


class TestGaussSum:
    def test_c_one_single_term(self):
        a2 = catalog_form("A2")
        h = (1, 2)
        phi = gauss_sum(a2, 2, 1, 1, h, (0, 0))
        # single g = h term: e(2 Q(h) / 9), Q(h) = 3
        import cmath, math

        expect = cmath.exp(2j * math.pi * (Fraction(2 * 3, 9) % 1))
        assert abs(phi - expect) < 1e-12

    def test_representative_shift_invariance(self):
        # replacing h by h + N u relabels the inner sum without changing it
        a2 = catalog_form("A2")
        p1 = gauss_sum(a2, 1, 2, 2, (1, 2), (0, 0))
        p2 = gauss_sum(a2, 1, 2, 2, (4, 5), (0, 0))
        assert abs(p1 - p2) < 1e-12

    def test_nonpositive_c_rejected(self):
        with pytest.raises(ValueError):
            gauss_sum(catalog_form("A2"), 1, 1, 0, (0, 0), (0, 0))

    def test_native_slot_value(self):
        # a=1, d=1, c=3 on the determinant-3 form: the sum is 3 sqrt(3) i,
        # not the d^r eps(d) closed form; the closed form belongs to the
        # substituted slots exercised in the verify tests
        import math

        a2 = catalog_form("A2")
        phi = gauss_sum(a2, 1, 1, 3, (0, 0), (0, 0))
        assert abs(phi - 3j * math.sqrt(3)) < 1e-12

    def test_accepts_class_objects(self):
        a2 = catalog_form("A2")
        h = CongruenceClass(a2, (1, 2))
        assert abs(
            gauss_sum(a2, 1, 1, 2, h, (0, 0)) - gauss_sum(a2, 1, 1, 2, (1, 2), (0, 0))
        ) < 1e-14

    # largest c the brute-force loop is asked to check, per form
    ORACLE_C = {"A2": 6, "A1A1": 6, "2A2": 6, "D4": 6, "E8": 2}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, data):
        name = data.draw(st.sampled_from(sorted(self.ORACLE_C)))
        form, c = catalog_form(name), data.draw(st.integers(1, self.ORACLE_C[name]))
        a, d = data.draw(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 2))
        classes = form.congruence_classes()
        h, q = (data.draw(st.sampled_from(classes)) for _ in range(2))
        expect = gauss_sum_bruteforce(form, a, d, c, h, q)
        assert abs(gauss_sum(form, a, d, c, h, q) - expect) < 1e-9

    def test_huge_representatives(self):
        # h and q enter only through residues mod cN^2 taken in Python ints
        a2 = catalog_form("A2")
        h, q = (1 + 3 * 10 ** 12, 2 - 3 * 10 ** 12), (2 + 9 * 10 ** 12, 1)
        twin = gauss_sum_bruteforce(a2, 5, -7, 3, (1, 2), (2, 1))
        assert abs(gauss_sum(a2, 5, -7, 3, h, q) - twin) < 1e-9
        # not a class: no reduction applies, the loop itself is the reference
        odd = (10 ** 12, 1)
        assert abs(
            gauss_sum(a2, 3, 5, 2, odd, odd) - gauss_sum_bruteforce(a2, 3, 5, 2, odd, odd)
        ) < 1e-9

    def test_int64_overflow_refused(self):
        with pytest.raises(OverflowError):
            gauss_sum(catalog_form("A2"), 1, 1, 10 ** 9, (0, 0), (0, 0))

    def test_budget_refused(self):
        # 10^8 points: refused before the walk starts
        with pytest.raises(EnumerationBudgetError):
            gauss_sum(catalog_form("A2"), 1, 1, 10 ** 4, (0, 0), (0, 0))

    def test_block_walk_memory(self):
        # 31^4 = 923521 points; every row at once would take more than 60 MB
        d4 = catalog_form("D4")
        tracemalloc.start()
        try:
            phi = gauss_sum(d4, 1, 1, 31, (0,) * 4, (0,) * 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        assert abs(phi - 961) < 1e-8
