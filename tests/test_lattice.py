import cmath
import math
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_forge import lattice
from theta_forge.arith import GaussianRational, divisor_sigma
from theta_forge.jacobi_like import verify_root_identity
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
    _bareiss,
    _unit_block,
)
from theta_forge.modforms import ThetaSpec, theta_expand

from oracles import (
    block_gram,
    box_enumerate,
    congruence_classes_scan,
    congruent_gram,
    eliminate_fraction,
    float_walk_histogram,
    gauss_sum_bruteforce,
    gauss_sum_walk,
    insertion_norm_loop,
    integral_weights_loop,
    inverse_exact,
    kronecker_euler,
    ldl_exact,
    mat_vec,
    quad_value_twice,
    skewed_basis,
    unimodular_pair,
    unit_block_loop,
)

_CATALOG_FORMS = {name: catalog_form(name) for name in CATALOG}


# even positive-definite Gram matrices the random forms are built from
_EVEN_BASES = {
    2: (CATALOG["A2"], CATALOG["A1A1"], ((2, 1), (1, 4)), ((4, 1), (1, 4)), ((6, 3), (3, 2))),
    4: (CATALOG["D4"], block_gram(CATALOG["A2"], CATALOG["A2"]), block_gram(((2, 1), (1, 4)), CATALOG["A1A1"])),
    8: (CATALOG["E8"], block_gram(CATALOG["D4"], CATALOG["D4"]), block_gram(CATALOG["A2"], CATALOG["D4"], ((2, 1), (1, 4)))),
}


# forms whose N^rank residues the class scan covers quickly
_SCANNABLE = {
    2: _EVEN_BASES[2],
    4: (CATALOG["D4"], block_gram(CATALOG["A2"], CATALOG["A2"]), block_gram(CATALOG["A1A1"], CATALOG["A2"])),
}


def _column_ops(f):
    return st.tuples(
        st.integers(0, f - 1), st.integers(0, f - 1), st.sampled_from((-3, -2, -1, 1, 2, 3))
    ).filter(lambda op: op[0] != op[1])


def _draw_skewed(data, gram, target):
    """A random unimodular (U, U^-1) whose U'AU has an entry of size at
    least target (or sixty column operations, whichever comes first)."""
    f = len(gram)
    ops = []
    u, uinv = unimodular_pair(f, ops)
    for _ in range(60):
        if max(abs(x) for row in congruent_gram(gram, u) for x in row) >= target:
            break
        ops.append(data.draw(_column_ops(f)))
        u, uinv = unimodular_pair(f, ops)
    return u, uinv


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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_elimination_matches_oracles(self, data):
        # one fraction-free Gauss-Jordan pass gives the LDL factors and the
        # inverse, the same as the pass over Q it replaced, or refuses a
        # matrix that is not positive-definite as the LDL does
        f = data.draw(st.integers(1, 8))
        shift = data.draw(st.sampled_from((0, 6, 20)))
        upper = {(i, j): data.draw(st.integers(-6, 6)) for i in range(f) for j in range(i, f)}
        gram = [[upper[min(i, j), max(i, j)] + shift * (i == j) for j in range(f)] for i in range(f)]
        try:
            ldl = ldl_exact(gram)
        except InvalidFormError as e:
            with pytest.raises(InvalidFormError) as got:
                _bareiss(gram)
            assert (got.value.code, str(got.value)) == (e.code, str(e))
            return
        adj, minors, lower = _bareiss(gram)
        assert all(type(x) is int for row in adj + lower for x in row) and all(type(x) is int for x in minors)
        inv = tuple(tuple(Fraction(x, minors[-1]) for x in row) for row in adj)
        L = tuple(tuple(Fraction(lower[j][i], minors[j]) if i > j else Fraction(int(i == j)) for j in range(f)) for i in range(f))
        d = [Fraction(m, p) for m, p in zip(minors, [1] + minors[:-1])]
        assert (inv, [list(row) for row in L], d) == (inverse_exact(gram), *ldl)
        assert (inv, (L, d)) == eliminate_fraction(gram)


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

    def test_scaled_form_kept(self):
        # c A on level c N, built once per c and kept, so a second rescale
        # check at the same c reuses its reduced basis and histograms
        d4 = catalog_form("D4")
        scaled = d4.scaled(3)
        assert scaled.gram == tuple(tuple(3 * x for x in row) for row in d4.gram)
        assert scaled.level == 3 * d4.level and scaled.det == 3 ** 4 * d4.det
        assert d4.scaled(3) is scaled and d4.scaled(2) is not scaled

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

    def test_leaf_test_drops_float_admitted_vectors(self):
        # the float pruning bound admits two vectors with Q > 10^6 here;
        # only the exact leaf test on 2Q keeps them out
        form = QuadraticForm([[44, 11], [11, 366]])
        assert enumerate_upto(form, 10 ** 6) == box_enumerate(form.gram, 10 ** 6)

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

    def test_budget_guards_vector_queries(self, monkeypatch):
        # the vector queries walk through the same guarded entry as the histograms
        a2 = catalog_form("A2")
        monkeypatch.setattr(lattice, "ENUMERATION_BUDGET", 100)
        with pytest.raises(EnumerationBudgetError):
            enumerate_upto(a2, 200)
        with pytest.raises(EnumerationBudgetError):
            enumerate_congruence(a2, (1, 2), 30)


class TestCongruenceClasses:
    def test_class_counts_match_det(self):
        for name in ("A2", "A1A1", "2A2", "D4", "E8"):
            form = catalog_form(name)
            assert len(form.congruence_classes()) == form.det

    def test_a2_classes(self):
        reps = {c.rep for c in catalog_form("A2").congruence_classes()}
        assert reps == {(0, 0), (1, 2), (2, 1)}

    @settings(max_examples=40, deadline=None)
    @given(f=st.sampled_from((2, 4)), data=st.data())
    def test_closure_matches_scan(self, f, data):
        base = data.draw(st.sampled_from(_SCANNABLE[f]))
        u, _ = _draw_skewed(data, base, data.draw(st.sampled_from((0, 10, 100))))
        form = QuadraticForm(congruent_gram(base, u))
        assert [h.rep for h in form.congruence_classes()] == congruence_classes_scan(form)

    def test_large_level(self):
        # 4036^4 residues are out of reach for a scan; the 16144 classes are not
        form = QuadraticForm([[2018, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
        assert (form.level, form.det) == (4036, 16144)
        reps = [h.rep for h in form.congruence_classes()]
        assert reps == sorted(product(range(0, 4036, 2), *[(0, 2018)] * 3))

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

    @pytest.mark.parametrize("e_far, t_far", [(3, 2), (10 ** 6, 7), (2 ** 40, 2 ** 30)])
    def test_fold_counts_every_key_space(self, e_far, t_far):
        # a dense packed code space is counted by bincount, a sparse one by
        # sorting the codes, and one past 2^62 by whole rows: the same
        # cells, ascending with no repeats, counted once per row and then
        # merged by their counts with a block that holds one more (0, 0, 1)
        e = np.array([0, e_far, 0, e_far, e_far], dtype=np.int64)
        ts = [np.array([0, t_far, 0, -5, t_far], dtype=np.int64), np.array([1, -1, 1, 0, -1], dtype=np.int64)]
        keys, counts = lattice._tally_cells([e, *ts])
        assert _as_dict(keys, counts) == {(0, 0, 1): 2, (e_far, t_far, -1): 2, (e_far, -5, 0): 1}
        merged = np.concatenate([[[0, 0, 1]], keys])
        cells = _as_dict(*lattice._tally_cells(list(merged.T), np.concatenate([[1], counts])))
        assert cells == {(0, 0, 1): 3, (e_far, t_far, -1): 2, (e_far, -5, 0): 1}
        assert all(type(x) is int for key in cells for x in key)

    def test_cache_serves_smaller_bounds(self):
        d4 = catalog_form("D4")
        big = insertion_histogram(d4, 9)
        small = insertion_histogram(d4, 4)
        assert small == {k: v for k, v in big.items() if k[0] <= 4}

    def test_callers_cannot_change_kept_histograms(self, monkeypatch):
        # every histogram handed out is a read-only view of the kept arrays:
        # the walk's own result, an exact kept hit, a smaller bound cut out
        # of a kept one, and a walked slice h0 + 4 Z^4 of 2 D4 refuse item
        # assignment and writes to their arrays, and later calls still
        # match the direct walk, served without a walk
        d4 = catalog_form("D4")
        scaled = QuadraticForm([[2 * x for x in row] for row in d4.gram])
        h0 = (2, 0, 0, 2)
        insertion_histogram(scaled, 16, scale=4, h0=h0)
        full, cut = _direct_cells(d4, 6, ()), _direct_cells(d4, 4, ())
        expect = [full, full, cut, _direct_cells(scaled, 16, (), 4, h0)]
        walked = insertion_histogram(d4, 6)
        walks = _count_leaves(monkeypatch)
        calls = [
            lambda: walked,
            lambda: insertion_histogram(d4, 6),
            lambda: insertion_histogram(d4, 4),
            lambda: insertion_histogram(scaled, 16, scale=4, h0=h0),
        ]
        for call, cells in zip(calls, expect):
            got = call()
            assert got == cells
            with pytest.raises(TypeError):
                got[next(iter(got))] += 1
            with pytest.raises(TypeError):
                got[(-1,)] = 1
            for array in (got.rows, got.counts):
                with pytest.raises(ValueError):
                    array[0] += 1
        assert [call() for call in calls] == expect
        assert walks == []

    def test_histogram_reads_its_arrays(self):
        # an exact hit, a cut bound, a summed-out projection and a walked
        # slice h0 + 4 Z^4 of 2 D4 each read as the dict of their own arrays
        d4 = catalog_form("D4")
        v = unit_insertion_vector(d4)
        _, rows = v.integral_weights(d4)
        scaled = QuadraticForm([[2 * x for x in row] for row in d4.gram])
        insertion_histogram(d4, 6, weights=rows)
        for hist in (
            insertion_histogram(d4, 6, weights=rows),
            insertion_histogram(d4, 4, weights=rows),
            insertion_histogram(d4, 5),
            insertion_histogram(scaled, 16, scale=4, h0=(2, 0, 0, 2), weights=rows),
        ):
            cells = _as_dict(hist.rows, hist.counts)
            assert cells and hist == cells and cells == hist and len(hist) == len(cells)
            assert list(hist) == list(cells) and hist.items() == list(cells.items())
            assert hist.values() == list(cells.values())
            assert all(hist.get(key) == n and key in hist for key, n in cells.items())
            assert hist.get((-1,) * hist.rows.shape[1]) is None and hist.get((0,) * 9, 5) == 5
            assert (10 ** 6,) + (0,) * (hist.rows.shape[1] - 1) not in hist

    @pytest.mark.parametrize(
        "bad",
        [
            {"bound": -1},
            {"scale": -2},
            {"scale": 0},
            {"h0": (1,)},
            {"h0": (1, 0, 5)},
            {"weights": ((1, 0, 7),)},
            {"weights": ((1,),)},
        ],
        ids=["bound", "scale-negative", "scale-zero", "h0-short", "h0-long", "weights-long", "weights-short"],
    )
    def test_rejects_bad_input(self, bad):
        # each is refused on entry, before a walk or a kept entry
        a2 = catalog_form("A2")
        call = {"bound": 4, **bad}
        bound = call.pop("bound")
        with pytest.raises(ValueError):
            insertion_histogram(a2, bound, **call)
        assert a2._cells == {}


class TestWalkKernel:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_float_walk(self, data):
        # random even forms, often in a skewed basis, on random cosets
        # h0 + scale Z^f with 0-2 weight rows: the same histogram exactly
        f = data.draw(st.sampled_from((2, 4)))
        base = data.draw(st.sampled_from(_EVEN_BASES[f]))
        c = data.draw(st.lists(st.sampled_from((1, 1, 2)), min_size=f, max_size=f))
        gram = tuple(tuple(c[i] * base[i][j] * c[j] for j in range(f)) for i in range(f))
        u, _ = _draw_skewed(data, gram, data.draw(st.sampled_from((0, 100, 10 ** 4))))
        gram = congruent_gram(gram, u)
        bound = data.draw(st.integers(0, 12 if f == 2 else 5))
        scale = data.draw(st.integers(1, 3))
        h0 = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=f, max_size=f)))
        row = st.lists(st.integers(-3, 3), min_size=f, max_size=f).map(tuple)
        weights = tuple(data.draw(st.lists(row, max_size=2)))
        got = insertion_histogram(QuadraticForm(gram), bound, scale=scale, h0=h0, weights=weights)
        assert got == float_walk_histogram(gram, bound, scale, h0, weights)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_blocks_split_before_expanding(self, data):
        # with a frontier chunk of a few candidates every block is halved
        # before it expands, down to single rows whose candidates expand
        # window by window: the same histogram, and no block of more
        f = data.draw(st.sampled_from((2, 4)))
        gram = data.draw(st.sampled_from(_EVEN_BASES[f]))
        bound = data.draw(st.integers(0, 12 if f == 2 else 4))
        scale = data.draw(st.integers(1, 2))
        h0 = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=f, max_size=f)))
        weights = tuple(data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=f, max_size=f).map(tuple), max_size=2)))
        chunk = data.draw(st.integers(1, 6))
        with patch.object(lattice, "_FRONTIER_CHUNK", chunk):
            blocks = list(lattice._leaf_chunks(QuadraticForm(gram), bound, scale, h0, weights))
            # the direct walk, its blocks merged by one more tally
            with patch.object(lattice, "_fiber_plan", lambda *args: None):
                cells = _as_dict(*lattice._slice_cells(QuadraticForm(gram), bound, scale, h0, weights))
        assert all(len(e) <= chunk for e, _ in blocks)
        assert cells == float_walk_histogram(gram, bound, scale, h0, weights)

    def test_one_row_expands_window_by_window(self):
        # diag(2, 2 10^12) to bound 10^10: one frontier row with 200,001
        # candidates for x, expanded in windows of _FRONTIER_CHUNK
        form = QuadraticForm([[2, 0], [0, 2 * 10 ** 12]])
        blocks = [len(e) for e, _ in lattice._leaf_chunks(form, 10 ** 10, 1, (0, 0), ())]
        assert sum(blocks) == 200_001 and max(blocks) <= lattice._FRONTIER_CHUNK < 200_001

    def test_exact_radii_admit_huge_entries(self):
        # each coordinate is clipped to its exact radius isqrt(2 bound
        # gram^-1_jj), 0 here, so the partials of a walk to bound 4 stay
        # far inside int64 and only the zero vector qualifies
        huge = QuadraticForm([[2 * 10 ** 18, 0], [0, 2 * 10 ** 18]])
        assert insertion_histogram(huge, 4) == {(0,): 1}

    def test_walk_refuses_int64_overflow(self):
        # 2Q reaches 2 * 10^19 > 2^63 on this form; refused before any array
        big = QuadraticForm([[2 * 10 ** 18, 0], [0, 2 * 10 ** 18]])
        tracemalloc.start()
        try:
            with pytest.raises(OverflowError):
                insertion_histogram(big, 10 ** 19)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _as_dict(keys, counts):
    """A histogram (keys, counts) as {key: count}, once its int64 rows are
    checked to ascend with no repeats."""
    assert keys.dtype == counts.dtype == np.int64 and len(keys) == len(counts)
    rows = list(map(tuple, keys.tolist()))
    assert rows == sorted(set(rows))
    return dict(zip(rows, counts.tolist()))


def _direct_cells(form, bound, weights, scale=1, h0=None):
    """The histogram of one direct walk, bypassing the fibered dispatch, its
    blocks merged in a dict."""
    cells = {}
    for e, ts in lattice._leaf_chunks(form, bound, scale, h0 or (0,) * form.rank, weights):
        for key, n in _as_dict(*lattice._tally_cells([e, *ts])).items():
            cells[key] = cells.get(key, 0) + n
    return cells


def _plans(form, bound, weights, scale=1, h0=None):
    """The slice's fibered plan along every direction priced, whatever the
    direct walk would cost: [] when it has none."""
    est = lattice._ellipsoid_points(form.rank, form.det, bound, scale)
    return list(lattice._fiber_plans(form, bound, scale, h0 or (0,) * form.rank, weights, est, math.inf))


def _count_leaves(monkeypatch):
    """Spy on every walk: (rank, scale, leaves met) once it is done."""
    walks = []
    leaf_chunks = lattice._leaf_chunks

    def counting(form, bound, scale, h0, weights):
        met = 0
        for e, ts in leaf_chunks(form, bound, scale, h0, weights):
            met += len(e)
            yield e, ts
        walks.append((form.rank, scale, met))

    monkeypatch.setattr(lattice, "_leaf_chunks", counting)
    return walks


# cost constants that make every plan cheaper than its direct walk whenever
# its kernel walks' estimates are, so the recursion goes as deep as it can
_EAGER = {name: 0 for name in ("_WALK_SETUP", "_FOLD_FIBER", "_FOLD_PAIR", "_KERNEL_SETUP")}


class TestFiberedWalk:
    def test_catalog_e8_matches_direct(self, monkeypatch):
        # the benchmark's case: E8 at bound 20 along its first root is
        # fibered through kernels of rank 7, 6 and 5, and meets a small
        # part of the direct walk's 11.5M vectors
        rows = unit_insertion_vector(_CATALOG_FORMS["E8"]).integral_weights(_CATALOG_FORMS["E8"])[1]
        direct = _direct_cells(catalog_form("E8"), 20, rows)
        walks = _count_leaves(monkeypatch)
        assert insertion_histogram(catalog_form("E8"), 20, weights=rows) == direct
        assert sum(direct.values()) == 11_513_521
        assert len(walks) > 2 and all(rank < 8 for rank, _, _ in walks)
        assert sum(met for _, _, met in walks) < 300_000

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_memo_matches_direct(self, data):
        # with the cost constants at zero the recursion goes as deep as its
        # estimates allow, and the walk's memo serves every kernel coset it
        # meets again, or its mirror: over catalog and skewed even forms of
        # rank 2, 4 and 8, random cosets h0 + scale Z^f and zero to two
        # random rows, the slice's histogram is the direct walk's exactly,
        # and that of -h0 is h0's with every t negated
        f = data.draw(st.sampled_from((2, 4, 8)))
        base = data.draw(st.sampled_from(_EVEN_BASES[f]))
        u, _ = _draw_skewed(data, base, data.draw(st.sampled_from((0, 100))))
        form = QuadraticForm(congruent_gram(base, u))
        scale = data.draw(st.integers(1, 4))
        top = {2: 30, 4: 10, 8: 5}[f] * scale * scale
        bound = top - data.draw(st.integers(0, top // 2))
        h0 = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=f, max_size=f)))
        row = st.lists(st.integers(-3, 3), min_size=f, max_size=f).map(tuple)
        weights = tuple(data.draw(st.lists(row, max_size=2)))
        with patch.multiple(lattice, **_EAGER):
            cells = _as_dict(*lattice._slice_cells(form, bound, scale, h0, weights))
            mirror = _as_dict(*lattice._slice_cells(form, bound, scale, tuple(-x for x in h0), weights))
        assert cells == _direct_cells(form, bound, weights, scale, h0)
        assert mirror == {(e, *(-t for t in ts)): n for (e, *ts), n in cells.items()}

    @pytest.mark.parametrize("bound, rowed, most", [(20, True, 12_000), (40, False, 8_000)])
    def test_each_kernel_coset_walked_once(self, monkeypatch, bound, rowed, most):
        # E8 along its first root to q^21, and plain through q^40: sibling
        # classes reach the same cosets of the same kernels, and a coset's
        # mirror -h holds its vectors negated, so one histogram walks each
        # (kernel, scale, h up to sign, rows) once and serves every repeat
        # from the walk's memo, meeting 8,485 and 4,477 leaves; walked
        # class by class they met 30,089 and 29,568
        e8 = catalog_form("E8")
        weights = unit_insertion_vector(e8).integral_weights(e8)[1] if rowed else ()
        walks = []
        leaf_chunks = lattice._leaf_chunks

        def counting(form, bound, scale, h0, weights):
            met = 0
            for e, ts in leaf_chunks(form, bound, scale, h0, weights):
                met += len(e)
                yield e, ts
            h = min(tuple(x % scale for x in h0), tuple(-x % scale for x in h0))
            walks.append(((form.gram, scale, h, weights), met))

        monkeypatch.setattr(lattice, "_leaf_chunks", counting)
        cells = insertion_histogram(e8, bound, weights=weights)
        assert sum(cells.values()) == (11_513_521 if rowed else sum(240 * divisor_sigma(3, n) for n in range(1, 41)) + 1)
        keys = [key for key, _ in walks]
        assert len(walks) > 1 and len(set(keys)) == len(keys)
        assert sum(met for _, met in walks) < most

    def test_e8_theta_through_q40(self, monkeypatch):
        # 1 + 240 sigma_3(n) exactly: 1.66e8 vectors, past the budget for a
        # direct walk, met in well under a million leaves
        walks = _count_leaves(monkeypatch)
        cells = insertion_histogram(catalog_form("E8"), 40)
        assert cells == {(n,): 240 * divisor_sigma(3, n) if n else 1 for n in range(41)}
        assert sum(met for _, _, met in walks) < 1_000_000

    def test_root_identity_at_q41(self, monkeypatch):
        # fibering E8 once along the root meets 31.7M leaves here
        walks = _count_leaves(monkeypatch)
        passed, _ = verify_root_identity(catalog_form("E8"), 41)
        assert passed
        assert sum(met for _, _, met in walks) < 1_000_000

    def test_residue_row_carried(self, monkeypatch):
        # a Poisson dual sum of E8 at rho = 7: split along its residue row,
        # D = 46 and 24 rank-7 kernel walks meet 188,513 leaves; along a
        # coordinate of the reduced basis that carries the row, far fewer
        row = (-3, -1, -2, 1, 1, -2, 1, -1)
        dual = catalog_form("E8").dual()
        direct = _direct_cells(dual, 11, (row,))
        walks = _count_leaves(monkeypatch)
        assert insertion_histogram(dual, 11, weights=(row,)) == direct
        assert len(walks) > 1 and all(rank < 8 for rank, _, _ in walks)
        assert sum(met for _, _, met in walks) < 150_000

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_float_walk(self, data):
        # random even forms of rank 2, 4 and 8 in skewed bases, on random
        # cosets h0 + scale Z^f, scale 1 to 5, with no row, one row or two:
        # random, or the Gram product of a short vector of the unskewed
        # basis as an insertion vector gives it, then scaled by 0 to 3 for
        # zero and non-primitive rows; two rows are the real and imaginary
        # rows of a complex vector, or an insertion row and a small residue
        # row as a dual sum keys them.  The dispatch and the plan along
        # each direction priced, forced, give the direct walk's histogram;
        # with the cost constants at zero the kernels are fibered as deep
        # as their estimates allow.
        f = data.draw(st.sampled_from((2, 4, 8)))
        base = data.draw(st.sampled_from(_EVEN_BASES[f]))
        u, uinv = _draw_skewed(data, base, data.draw(st.sampled_from((0, 100) if f == 8 else (0, 100, 10 ** 4))))
        gram = congruent_gram(base, u)
        scale = data.draw(st.integers(1, 5))
        top = {2: 30, 4: 8, 8: 4}[f] * scale * scale
        bound = top - data.draw(st.integers(0, top))  # fibers repeat more at large bounds
        h0 = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=f, max_size=f)))

        def short_row():
            i, j = data.draw(st.tuples(st.integers(0, f - 1), st.integers(0, f - 1)))
            sign = data.draw(st.sampled_from((0, 1, -1)))
            short = [int(k == i) + sign * (k == j) for k in range(f)]
            return mat_vec(gram, mat_vec(uinv, short))

        kind = data.draw(st.sampled_from(("none", "short", "short", "random", "complex", "residue")))
        if kind == "random":
            row = data.draw(st.lists(st.integers(-3, 3), min_size=f, max_size=f))
        else:
            row = short_row()
        row = tuple(data.draw(st.sampled_from((1, 1, 1, 2, 3, 0))) * x for x in row)
        weights = () if kind == "none" else (row,)
        if kind == "complex":
            weights += (tuple(short_row()),)
        elif kind == "residue":
            weights += (tuple(data.draw(st.lists(st.integers(-3, 3), min_size=f, max_size=f))),)
        expect = float_walk_histogram(gram, bound, scale, h0, weights)
        with patch.multiple(lattice, **_EAGER) if data.draw(st.booleans()) else nullcontext():
            form = QuadraticForm(gram)
            assert insertion_histogram(form, bound, scale=scale, h0=h0, weights=weights) == expect
            for plan in _plans(form, bound, weights, scale, h0):
                assert _as_dict(*lattice._fibered_cells(form, bound, scale, plan)) == expect

    @pytest.mark.parametrize(
        "gram, bound, row, fibered",
        [
            (CATALOG["A2"], 1, (1, 0), True),  # a rank-1 kernel: t mod 2 over t = -1, 0, 1
            (CATALOG["A2"], 0, (1, 0), False),  # one fiber
            (CATALOG["A2"], 5, (0, 0), False),  # no row to split along
            (CATALOG["A2"], 3, (-3, -2), False),  # residues do not repeat
            (CATALOG["D4"], 6, (2, -2, 0, 0), True),  # non-primitive
            (CATALOG["A1A1"], 6, (0, 2), True),  # an orthogonal summand: one residue
        ],
    )
    def test_dispatch(self, gram, bound, row, fibered):
        # whether fibering along the row itself (w_x = 0, w_s != 0) can
        # repeat a kernel walk at all; every plan priced, forced, and the
        # dispatch give the direct walk's cells
        form = QuadraticForm(gram)
        plans = _plans(form, bound, (row,))
        along = [rows for *_, rows in plans if rows[0][1] and not any(rows[0][0])]
        assert bool(along) == fibered
        direct = _direct_cells(form, bound, (row,))
        assert insertion_histogram(form, bound, weights=(row,)) == direct
        for plan in plans:
            assert _as_dict(*lattice._fibered_cells(form, bound, 1, plan)) == direct

    @pytest.mark.parametrize(
        "name, bound, rowed, fibered",
        [
            ("E8", 3, True, False),  # a kernel's first LLL and elimination cost more than it saves
            ("E8", 8, True, True),
            ("E8", 5, False, True),  # no row: along a coordinate of the reduced basis
            ("A2", 6, False, False),  # each kernel walk costs more set-up than the whole walk
        ],
    )
    def test_dispatch_by_cost(self, monkeypatch, name, bound, rowed, fibered):
        # the dispatch goes by estimated cost, set-up included, on fresh forms
        form = catalog_form(name)
        weights = unit_insertion_vector(form).integral_weights(form)[1] if rowed else ()
        plans = []
        fibered_cells = lattice._fibered_cells

        def spy(*args):
            plans.append(args[3])
            return fibered_cells(*args)

        monkeypatch.setattr(lattice, "_fibered_cells", spy)
        assert insertion_histogram(form, bound, weights=weights) == _direct_cells(catalog_form(name), bound, weights)
        assert bool(plans) == fibered

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=8))
    def test_column_gcd(self, a):
        V, Vinv, g = lattice._column_gcd(a)
        f = len(a)
        assert g == math.gcd(*a)
        assert [sum(x * V[i][j] for i, x in enumerate(a)) for j in range(f)] == [0] * (f - 1) + [g]
        identity = [[int(i == j) for j in range(f)] for i in range(f)]
        assert [[sum(V[i][k] * Vinv[k][j] for k in range(f)) for j in range(f)] for i in range(f)] == identity

    @pytest.mark.parametrize("name", ["A2", "D4", "E8"])
    def test_kernel_determinant(self, name):
        # a kernel's determinant is read off the reduced inverse, not from
        # an elimination of its own; it must be the exact one, along a root
        # row, twice it and every coordinate of the reduced basis, and one
        # level down along each kernel's first coordinate
        skew = QuadraticForm(skewed_basis(CATALOG[name], 100)[0])
        _, _, U, _, _ = skew._reduced()
        f = skew.rank
        root_row = skew._gram_times(first_root(skew))
        rows = [tuple(sum(k * r[i] * U[i][j] for i in range(f)) for j in range(f)) for r in (root_row,) for k in (1, 2)]
        rows += [tuple(int(i == j) for i in range(f)) for j in range(f)]
        for a in rows:
            fib = lattice._fibration(skew, a)
            kernel = fib.kernel
            assert kernel.det == _bareiss(kernel.gram)[1][-1]
            if kernel.rank > 1:
                sub = lattice._fibration(kernel, (1,) + (0,) * (kernel.rank - 1)).kernel
                assert sub.det == _bareiss(sub.gram)[1][-1]
        assert lattice._fibration(skew, rows[0]) is lattice._fibration(skew, rows[0])  # kept on the form

    def test_kernel_form_of_odd_rank(self):
        # the private path walks an odd-rank kernel; the public one refuses it
        a3 = QuadraticForm._kernel(((2, -1, 0), (-1, 2, -1), (0, -1, 2)), 4)
        assert len(enumerate_upto(a3, 1)) == 13
        with pytest.raises(InvalidFormError):
            QuadraticForm(a3.gram)

    def _refusing_ranks(self, monkeypatch, form, bound, weights, error):
        ranks = []
        leaf_chunks = lattice._leaf_chunks

        def spy(walked, *args):
            ranks.append(walked.rank)
            return leaf_chunks(walked, *args)

        monkeypatch.setattr(lattice, "_leaf_chunks", spy)
        tracemalloc.start()
        try:
            with pytest.raises(error):
                insertion_histogram(form, bound, weights=weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        return ranks

    def test_kernel_walk_refuses_over_budget(self, monkeypatch):
        # E8 at 10^7, plain and along a root: the cheapest plan is refused
        # on its estimate before any walk starts
        e8 = catalog_form("E8")
        rows = unit_insertion_vector(e8).integral_weights(e8)[1]
        for weights in ((), rows):
            assert self._refusing_ranks(monkeypatch, catalog_form("E8"), 10 ** 7, weights, EnumerationBudgetError) == []

    def test_fold_refuses_over_budget(self, monkeypatch):
        # A2 at 10^8: the plan's two rank-1 kernel walks are tiny, and only
        # the fold's cost, per fiber and per pair, keeps it above the direct
        # walk, which is refused before it allocates; priced by its kernel
        # walks alone, the plan would fold 3.6e8 pairs in over 1 GB
        assert self._refusing_ranks(monkeypatch, catalog_form("A2"), 10 ** 8, (), EnumerationBudgetError) == [2]

    def test_one_fibration_per_form(self):
        # a plain slice is planned along the one coordinate the reduced
        # adjugate names, and a slice with one row along that coordinate
        # and along the row, so every form of the recursion builds at most
        # one split per direction priced: one each for E8 and each kernel
        # below it walked plain, at most two along a root
        e8 = catalog_form("E8")
        rows = unit_insertion_vector(e8).integral_weights(e8)[1]
        for weights, most in (((), {1}), (rows, {1, 2})):
            forms, kept = [catalog_form("E8")], []
            insertion_histogram(forms[0], 20, weights=weights)
            while forms:
                form = forms.pop()
                kept.append(len(form._fibers))
                forms += [fib._kernel for fib in form._fibers.values() if fib._kernel is not None]
            assert len(kept) > 2 and 1 in kept and set(kept) <= most

    def test_kernel_walk_refuses_int64_overflow(self, monkeypatch):
        big = QuadraticForm([[2 * 10 ** 18, 0], [0, 2 * 10 ** 18]])
        ranks = self._refusing_ranks(monkeypatch, big, 10 ** 19, ((1, 0),), OverflowError)
        assert ranks == [1]


def _rescale_weights(scaled, vector):
    """The weight rows a class theta of the scaled form asks for: none, one
    (a real insertion vector) or two (a complex one)."""
    if vector is None:
        return ()
    w = tuple(GaussianRational(int(x.real), int(x.imag)) for x in vector)
    return InsertionVector(w).integral_weights(scaled)[1]


def _check_coset_partition(form, c, h, vector, radius, plans=False):
    """The coset h + N Z^f of c*form to the bound radius*(cN)^2, as the
    rescale law's right side walks it, against its c^f fine slices
    h + N w + cN Z^f, the classes of cA, each walked directly on its own:
    the coset's histogram is exactly their sum.  With plans, the coset's
    fibered plan, forced, must give it too.  Returns the coset's total."""
    f, N = form.rank, form.level
    scaled = QuadraticForm([[c * x for x in row] for row in form.gram])
    assert scaled.level == c * N  # so each class of cA is one fine slice
    weights = _rescale_weights(scaled, vector)
    bound = radius * (c * N) ** 2
    expect = {}
    for w in product(range(c), repeat=f):
        g = tuple(x + N * wi for x, wi in zip(h, w))
        for key, n in _direct_cells(scaled, bound, weights, c * N, g).items():
            expect[key] = expect.get(key, 0) + n
    assert insertion_histogram(scaled, bound, scale=N, h0=h, weights=weights) == expect
    if plans:
        for plan in _plans(scaled, bound, weights, N, h):
            assert _as_dict(*lattice._fibered_cells(scaled, bound, N, plan)) == expect
    return sum(expect.values())


class TestClassSlices:
    # The rescale law sums the c^f class thetas of cA as the one coset
    # h + N Z^f of cA; these check that coset's walk exactly against its
    # classes, walked one by one, and bound what the walk costs.

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_direct_walks(self, data):
        # random even forms of rank 2, 4 and 8 in skewed bases, every class
        # h, c = 2 or 3 (2 on rank 8, whose 3^8 direct walks are too slow
        # here), with no weights, the one row of a real vector or the two
        # rows of a complex one.  The coset, fibered wherever its cost says
        # so and, in half the draws, with the cost constants at zero so
        # that it is fibered as deep as its estimates allow, and its
        # fibered plan, forced, give the sum of the classes' direct walks.
        f = data.draw(st.sampled_from((2, 4, 8)))
        base = data.draw(st.sampled_from(_EVEN_BASES[f]))
        u, _ = _draw_skewed(data, base, data.draw(st.sampled_from((0, 100, 10 ** 4))))
        form = QuadraticForm(congruent_gram(base, u))
        c = data.draw(st.sampled_from((2, 3) if f < 8 else (2,)))
        h = data.draw(st.sampled_from(form.congruence_classes())).rep
        entry = st.integers(-2, 2)
        vector = data.draw(st.sampled_from((None, "real", "complex")))
        if vector is not None:
            parts = st.tuples(entry, entry if vector == "complex" else st.just(0))
            vector = data.draw(
                st.lists(parts.map(lambda p: complex(*p)), min_size=f, max_size=f).filter(
                    lambda xs: any(x.real for x in xs) and (vector == "real" or any(x.imag for x in xs))
                )
            )
        radius = data.draw(st.integers(1, {2: 4, 4: 2, 8: 1}[f]))
        with patch.multiple(lattice, **_EAGER) if data.draw(st.booleans()) else nullcontext():
            _check_coset_partition(form, c, h, vector, radius, plans=True)

    # E8 at c = 3 would take 3^8 direct walks; c = 2 covers E8
    @pytest.mark.parametrize(
        "name, c", [(name, c) for name in sorted(CATALOG) for c in (2, 3) if (name, c) != ("E8", 3)]
    )
    def test_catalog_forms(self, name, c):
        form = _CATALOG_FORMS[name]
        h = form.congruence_classes()[-1].rep
        vector = (1,) + (0,) * (form.rank - 2) + (1j,)
        assert _check_coset_partition(form, c, h, vector, 2) > 0

    def test_family_walk_memory(self):
        # the laws-e8 coset walk (2 E8 along a root, k = 2, c = 2, to bound
        # 20: the 794,161 vectors of E8 with Q <= 10) peaks near 30 MB with
        # blocks bounded by their candidates, and at 66 MB with leaf blocks
        # bounded only by the rows they grew from
        e8 = _CATALOG_FORMS["E8"]
        scaled = QuadraticForm([[2 * x for x in row] for row in e8.gram])
        weights = unit_insertion_vector(e8).integral_weights(scaled)[1]
        scaled._reduced()
        tracemalloc.start()
        try:
            hist = insertion_histogram(scaled, 20, weights=weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 << 20
        assert sum(hist.values()) == 794_161

    @pytest.mark.parametrize(
        "gram, h, radius",
        [
            (CATALOG["D4"], (0, 0, 1, 1), 1),  # a half-period class: s0 = scale/2
            (((2, 1), (1, 4)), (0, 0), 4),  # D = 4
            (((2, 1), (1, 8)), (0, 0), 4),  # D = 8
        ],
    )
    def test_mirrored_fibers(self, gram, h, radius):
        # cosets with fibers that are the negatives of their class's kernel
        # coset (2 hy = 0 mod scale), at c = 3, against their classes,
        # whose fibers at scale 3N are mirrored too; the plan, forced
        for eager in (False, True):
            with patch.multiple(lattice, **_EAGER) if eager else nullcontext():
                assert _check_coset_partition(QuadraticForm(gram), 3, h, None, radius, plans=True) > 0

    @pytest.mark.parametrize("c, bound, direct, most", [(2, 20, 794_161, 150_000), (3, 45, 3_721_681, 300_000)])
    def test_fibered_family_leaves(self, monkeypatch, c, bound, direct, most):
        # the rescale cosets of c E8 along a root (k = 2), as laws-e8 and
        # the E8 campaign walk them: fibered through the kernels, they meet
        # a small part of the direct walk's leaves and keep every vector
        e8 = _CATALOG_FORMS["E8"]
        scaled = QuadraticForm([[c * x for x in row] for row in e8.gram])
        weights = unit_insertion_vector(e8).integral_weights(scaled)[1]
        walks = _count_leaves(monkeypatch)
        assert sum(insertion_histogram(scaled, bound, weights=weights).values()) == direct
        assert len(walks) > 1 and all(rank < 8 for rank, _, _ in walks)
        assert sum(met for _, _, met in walks) < most


class TestReducedBasis:
    @pytest.mark.parametrize(
        "gram", [CATALOG[name] for name in sorted(CATALOG)] + [skewed_basis(CATALOG["E8"], 10 ** 4)[0]]
    )
    def test_stored_basis_is_unimodular(self, gram):
        form = QuadraticForm(gram)
        assert form._lll is None  # building a form reduces nothing
        enumerate_upto(form, 1)
        reduced, _, u, uinv, _ = form._lll
        f = form.rank
        u_times_uinv = tuple(zip(*(mat_vec(u, col) for col in zip(*uinv))))
        assert u_times_uinv == tuple(tuple(int(i == j) for j in range(f)) for i in range(f))
        assert congruent_gram(gram, u) == reduced

    def test_skewed_bases_reduce(self):
        # a skewed E8 basis comes back with small entries, and the walk
        # finds the same 240 roots in the caller's coordinates
        skew = QuadraticForm(skewed_basis(CATALOG["E8"], 10 ** 4)[0])
        roots = [m for m in enumerate_upto(skew, 1) if any(m)]
        assert len(roots) == 240
        assert all(skew.q_value(m) == 1 for m in roots)
        assert max(abs(x) for row in skew._lll[0] for x in row) <= 2


class TestBasisInvariance:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(("A2", "A1A1", "2A2", "D4")), data=st.data())
    def test_theta_and_vectors_follow_the_basis(self, name, data):
        form = _CATALOG_FORMS[name]
        u, uinv = _draw_skewed(data, form.gram, data.draw(st.sampled_from((10, 10 ** 4))))
        skew = QuadraticForm(congruent_gram(form.gram, u))
        v = unit_insertion_vector(form)
        v_skew = InsertionVector(mat_vec(uinv, v.w), v.s)
        h = data.draw(st.sampled_from(form.congruence_classes()))
        h_skew = CongruenceClass(skew, mat_vec(uinv, h.rep))
        k = data.draw(st.sampled_from((2, 4)))
        prec = 6 if form.rank == 2 else 4
        for spec, spec_skew, p in (
            (ThetaSpec(form), ThetaSpec(skew), prec),
            (ThetaSpec(form, v, k), ThetaSpec(skew, v_skew, k), prec),
            (ThetaSpec(form, None, 0, h), ThetaSpec(skew, None, 0, h_skew), 2),
            (ThetaSpec(form, v, 2, h), ThetaSpec(skew, v_skew, 2, h_skew), 2),
        ):
            assert theta_expand(spec_skew, p) == theta_expand(spec, p)
        bound = 4 if form.rank == 2 else 2
        assert set(enumerate_upto(skew, bound)) == {mat_vec(uinv, m) for m in enumerate_upto(form, bound)}


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

    @pytest.mark.parametrize("name", ["A2", "D4", "A1A1"])
    def test_q_representative_when_ad_is_one_mod_c(self, name):
        # with a d = 1 mod c, as the (a, d, c) of a matrix of determinant 1
        # that both callers pass, phi depends on q's class only:
        # q -> q + N e_i is the relabelling g -> g - d N e_i of the sum
        form = _CATALOG_FORMS[name]
        N = form.level
        reps = [cl.rep for cl in form.congruence_classes()]
        for a, d, c in ((1, 1, 3), (2, 3, 5), (5, 5, 8), (3, 7, 10), (7, 4, 9), (1, -1, 2)):
            assert a * d % c == 1 % c
            for h, q in product(reps, repeat=2):
                phi = gauss_sum(form, a, d, c, h, q)
                for i in range(form.rank):
                    shifted = tuple(x + N * (j == i) for j, x in enumerate(q))
                    assert abs(gauss_sum(form, a, d, c, h, shifted) - phi) < 1e-9 * max(1.0, abs(phi))

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
        # not a class: the sum over g mod cN depends on the representative
        odd = (10 ** 12, 1)
        with pytest.raises(ValueError):
            gauss_sum(a2, 3, 5, 2, odd, odd)

    def test_representative_outside_classes_refused(self):
        # A h != 0 mod 3: these three representatives of h = (1, 0) mod 3
        # summed to three different values over g mod cN
        a2 = catalog_form("A2")
        for h in ((1, 0), (4, 0), (1, 3)):
            with pytest.raises(ValueError):
                gauss_sum(a2, 1, 5, 2, h, (0, 0))
            with pytest.raises(ValueError):
                gauss_sum(a2, 1, 5, 2, (0, 0), h)

    def test_c_past_int64_residues(self):
        # c = 2^9 5^9: one 2x2 block mod 2^9 and two 1x1 blocks mod 5^9,
        # where the walk refused residues mod cN^2 past int64
        phi = gauss_sum(catalog_form("A2"), 1, 1, 10 ** 9, (0, 0), (0, 0))
        assert abs(abs(phi) / 10 ** 9 - 1) < 1e-9

    def test_budget_refused(self):
        # a prime above the budget is refused unfactored, before anything
        # is allocated; E8 at c = 2^12, four 2x2 blocks mod 2^12 that a
        # point loop refused at 2^24 points each, is four closed forms
        a2 = catalog_form("A2")
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationBudgetError):
                gauss_sum(a2, 1, 1, 2 ** 31 - 1, (0, 0), (0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        phi = gauss_sum(catalog_form("E8"), 1, 1, 2 ** 12, (0,) * 8, (0,) * 8)
        assert abs(abs(phi) / 2 ** 48 - 1) < 1e-12

    def test_e8_past_the_walk(self):
        # 49^8 points for the walk; eight 1x1 blocks mod 49 here
        phi = gauss_sum(catalog_form("E8"), 1, 1, 49, (0,) * 8, (0,) * 8)
        assert abs(abs(phi) / 49 ** 4 - 1) < 1e-9

    # moduli with 1x1 and 2x2 blocks at 2, blocks at 3, 5 and 7, and CRT;
    # 64, 81 and 125 (rank 2 only) strip blocks to deeper unit parts, 210
    # puts four primes in one CRT and 243 gives odd m = 5 at p = 3
    WALK_C = (2, 4, 8, 16, 32, 3, 9, 27, 25, 49, 12, 18, 24, 30, 64, 81, 125, 210, 243)
    # random forms: orthogonal sums of these, with odd and even
    # off-diagonals, in a basis mixed by column operations
    WALK_BLOCKS = tuple(
        ((2 * x, y), (y, 2 * z)) for x in (1, 2) for z in (1, 2) for y in range(-2, 3) if 4 * x * z > y * y
    )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_walk(self, data):
        if data.draw(st.booleans()):
            form = _CATALOG_FORMS[data.draw(st.sampled_from(sorted(CATALOG)))]
        else:
            f = data.draw(st.sampled_from((2, 4, 6)))
            gram = block_gram(*data.draw(st.lists(st.sampled_from(self.WALK_BLOCKS), min_size=f // 2, max_size=f // 2)))
            u, _ = unimodular_pair(f, data.draw(st.lists(_column_ops(f), max_size=4)))
            form = QuadraticForm(congruent_gram(gram, u))
        c = data.draw(st.sampled_from([c for c in self.WALK_C if c ** form.rank <= 2 * 10 ** 5]))
        a, d = data.draw(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 2))
        classes = form.congruence_classes()
        h, q = (data.draw(st.sampled_from(classes)) for _ in range(2))
        phi, walk = gauss_sum(form, a, d, c, h, q), gauss_sum_walk(form, a, d, c, h, q)
        assert abs(phi - walk) < 1e-9
        assert (phi == 0j) == (abs(walk) < 1e-9)

    @pytest.mark.parametrize("c", [3, 9, 15, 27, 45])
    def test_odd_prime_off_diagonal_pivot(self, c):
        # [[6, 1], [1, 6]] is 0 on the diagonal mod 3 with a unit off it, so
        # the Jordan splitting at p = 3 first makes a diagonal unit by adding
        # one basis vector to the other; at 15 and 45 the p = 5 block joins
        form = QuadraticForm([[6, 1], [1, 6]])
        classes = form.congruence_classes()
        for a, d in ((1, 1), (2, 5), (4, 7)):
            for h, q in ((classes[0], classes[0]), (classes[1], classes[3])):
                phi, walk = gauss_sum(form, a, d, c, h, q), gauss_sum_walk(form, a, d, c, h, q)
                assert abs(phi - walk) < 1e-9
                assert (phi == 0j) == (abs(walk) < 1e-9)

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

    @pytest.mark.parametrize(
        "name, c, size", [("A2", 3_999_971, 3_999_971), ("A1A1", 2 ** 22, 2 ** 23)], ids=["A2", "A1A1"]
    )
    def test_unit_block_memory(self, name, c, size):
        # two 1x1 blocks mod c, at the prime 3,999,971 and at 2^22, where a
        # count per residue held 32 MB
        tracemalloc.start()
        try:
            phi = gauss_sum(catalog_form(name), 1, 1, c, (0, 0), (0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert abs(abs(phi) / size - 1) < 1e-9

    def test_stripped_blocks_and_float_range(self):
        # A1A1 with a = 2^10 at c = 2^25: each 1x1 block is 2^10 times a
        # unit block mod 2^15
        a1a1 = catalog_form("A1A1")
        phi = gauss_sum(a1a1, 2 ** 10, 1, 2 ** 25, (0, 0), (0, 0))
        assert abs(abs(phi) / 2 ** 36 - 1) < 1e-12
        # a = c strips both blocks to one point: the sum is c^2 exactly, and
        # refused once c^2 would leave the float range
        assert gauss_sum(a1a1, 2 ** 470, 1, 2 ** 470, (0, 0), (0, 0)) == 2 ** 940
        with pytest.raises(EnumerationBudgetError):
            gauss_sum(a1a1, 2 ** 520, 1, 2 ** 520, (0, 0), (0, 0))

    @pytest.mark.parametrize("kind", ["odd", "two", "pair"])
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_unit_block_closed_forms(self, kind, data):
        # each closed form against the point loop it replaced: a 1x1 block
        # u y^2 + b y at p = 3, 5, 7, 11 (m <= 4) and at 2 (m <= 12, either
        # parity of b), and a unit 2x2 block at 2 (m <= 7), Gram
        # [[2a, c], [c, 2b]] with c odd, so det = 4ab - c^2 is 3 mod 8 for
        # odd ab and 7 mod 8 for even ab
        p = data.draw(st.sampled_from((3, 5, 7, 11))) if kind == "odd" else 2
        Q = p ** data.draw(st.integers(0, {"odd": 4, "two": 12, "pair": 7}[kind]))
        residue = st.integers(0, Q - 1)
        if kind == "pair":
            quad = [[data.draw(residue), 2 * data.draw(residue) + 1], [0, data.draw(residue)]]
        else:
            quad = [[p * data.draw(residue) + data.draw(st.integers(1, p - 1))]]
        lin = [data.draw(residue) for _ in quad]
        loop, block = unit_block_loop(quad, lin, Q), _unit_block(quad, lin, Q)
        assert (block is None) == (abs(loop) < 1e-9)
        if block is not None:
            norm, phase = block
            assert isinstance(norm, int) and isinstance(phase, Fraction)
            assert abs(abs(loop) / math.sqrt(norm) - 1) < 1e-9
            assert abs(loop / abs(loop) - cmath.exp(2j * math.pi * phase)) < 1e-9
