"""Integer-summation reductions: digit layout, tags, and the iff checks.

The digit oracle recounts true literals from scratch; integer packing is
rebuilt with plain base-10 arithmetic.
"""

from __future__ import annotations

import itertools
import random

import pytest

from bridgeworks.reductions import (
    OneInThreeSatInstance,
    carry_overflow_example,
    ksum_brute_force,
    one_in_three_sat_brute_force,
    random_instance,
    repunit,
    sat_to_cov,
    sat_to_ksum,
    sat_to_threesum,
    threesum_brute_force,
    verify_ksum_iff,
    verify_threesum_iff,
)


def oracle_clause_digit(clause, by_var):
    count = sum(1 for lit in clause
                if by_var.get(abs(lit)) is not None and (lit > 0) == by_var[abs(lit)])
    return min(count, 2)


def digits_of(value, n_digits):
    out = []
    for _ in range(n_digits):
        value, d = divmod(value, 10)
        out.append(d)
    return out  # least significant first


# ---------------------------------------------------------------- layout

def test_repunit():
    assert [repunit(i) for i in range(1, 6)] == [1, 11, 111, 1111, 11111]


def test_group_integers_encode_digits_and_one_hot_tags():
    rng = random.Random(4)
    for _ in range(15):
        inst = random_instance(rng.choice((3, 4, 6)), rng.randint(1, 4), rng.randrange(10**6))
        for k in (3, 4, 5, 6):
            ks = sat_to_ksum(inst, k)
            groups = len(ks.group_sizes)
            assert groups == k - 1
            n_digits = inst.m + groups
            idx = 0
            for g, (size, vars_g) in enumerate(zip(ks.group_sizes, ks.group_vars)):
                assert size == 2 ** len(vars_g)
                for a in range(size):
                    value = ks.integers[idx]
                    assign = ks.assignments[g][a]
                    by_var = dict(zip(vars_g, assign))
                    ds = digits_of(value, n_digits)
                    # clause digits occupy the high columns, tags the low
                    clause_digits = list(reversed(ds[groups:]))
                    want = [oracle_clause_digit(cl, by_var) for cl in inst.clauses]
                    assert clause_digits == want, (value, want, clause_digits)
                    # tag block: single 1 marking the group
                    tag = list(reversed(ds[:groups]))
                    assert sorted(tag) == [0] * (groups - 1) + [1]
                    assert tag.index(1) == g
                    idx += 1
            # one negative target closes the list
            assert ks.integers[idx] == -repunit(inst.m + groups)
            assert idx + 1 == len(ks.integers)


def test_all_group_tags_distinct_and_cover_groups():
    inst = random_instance(4, 2, 8)
    ks = sat_to_ksum(inst, 4)
    n_digits = inst.m + len(ks.group_sizes)
    start = 0
    seen_tags = []
    groups = len(ks.group_sizes)
    for g, size in enumerate(ks.group_sizes):
        tags = set()
        for value in ks.integers[start:start + size]:
            tag = tuple(digits_of(value, n_digits)[:groups])
            tags.add(tag)
        assert len(tags) == 1
        seen_tags.append(next(iter(tags)))
        start += size
    assert len(set(seen_tags)) == len(ks.group_sizes)


def test_threesum_strips_tags_consistently():
    rng = random.Random(6)
    for _ in range(10):
        inst = random_instance(rng.choice((3, 4)), rng.randint(1, 4), rng.randrange(10**6))
        ts = sat_to_threesum(inst)
        cov = sat_to_cov(inst)
        # the two positive blocks mirror the half-assignment vectors with
        # the swapped digit convention: count capped at 2, no special zero
        assert ts.a_count == len(cov.vectors_a)
        assert ts.b_count == len(cov.vectors_b)
        for vec, assign in zip(ts.vectors_a, cov.assignments_a):
            by_var = dict(zip(cov.half_a_vars, assign))
            assert list(vec) == [oracle_clause_digit(cl, by_var) for cl in inst.clauses]
        for vec, assign in zip(ts.vectors_b, cov.assignments_b):
            by_var = dict(zip(cov.half_b_vars, assign))
            assert list(vec) == [oracle_clause_digit(cl, by_var) for cl in inst.clauses]
        # so the 3-SUM vectors are the COV vectors with 0 and 1 swapped
        for ts_vecs, cov_vecs in ((ts.vectors_a, cov.vectors_a), (ts.vectors_b, cov.vectors_b)):
            assert ts_vecs == tuple(tuple((1, 0, 2)[d] for d in v) for v in cov_vecs)


def test_every_sat_reduction_caps_blocks_at_12_variables():
    inst = OneInThreeSatInstance(25, ((1, 13, -25),))
    for reduce in (sat_to_cov, sat_to_threesum, lambda i: sat_to_ksum(i, 3)):
        with pytest.raises(ValueError, match="capped at 12 variables per block"):
            reduce(inst)
    # three blocks of 9 variables stay under the cap
    assert sat_to_ksum(inst, 4).group_sizes == (512, 512, 512)


def test_set_size_formula_even_vars():
    for n, m in ((4, 2), (6, 3)):
        inst = random_instance(n, m, 1)
        ts = sat_to_threesum(inst)
        assert len(ts.integers) == 2 ** (n // 2 + 1) + 1


# ---------------------------------------------------------------- brute force

def test_threesum_brute_force_lex_min():
    vals = (5, -8, 3, 3, 2, -8)
    hit = threesum_brute_force(vals)
    assert hit == (0, 2, 4) or sum(vals[i] for i in hit) == 0
    # exhaustive scan for the true lex-min triple
    best = None
    for i, j, k in itertools.combinations(range(len(vals)), 3):
        if vals[i] + vals[j] + vals[k] == 0:
            best = (i, j, k)
            break
    assert hit == best


def test_ksum_brute_force_matches_itertools_scan():
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(4, 9)
        vals = tuple(rng.randint(-12, 12) for _ in range(n))
        for k in (3, 4, 5):
            if k > n:
                continue
            hit = ksum_brute_force(vals, k)
            want = None
            for combo in itertools.combinations(range(n), k):
                if sum(vals[i] for i in combo) == 0:
                    want = combo
                    break
            assert hit == want


# ---------------------------------------------------------------- iff

def test_sum_iff_all_k():
    rng = random.Random(21)
    for trial in range(25):
        n = rng.choice((3, 4, 6))
        inst = random_instance(n, rng.randint(1, 4), rng.randrange(10**6))
        want = one_in_three_sat_brute_force(inst) is not None
        rep3 = verify_threesum_iff(inst)
        assert rep3.consistent and rep3.sat == want
        for k in (3, 4, 5, 6):
            rep = verify_ksum_iff(inst, k)
            assert rep.consistent and rep.sat == want, (inst, k)


def test_satisfying_witness_contains_negative_target():
    inst = OneInThreeSatInstance(4, ((1, 2, 3),))
    ts = sat_to_threesum(inst)
    hit = threesum_brute_force(ts)
    assert hit is not None
    assert min(ts.integers[i] for i in hit) == -repunit(inst.m + 2)
    ks = sat_to_ksum(inst, 5)
    hit5 = ksum_brute_force(ks)
    assert hit5 is not None
    assert min(ks.integers[i] for i in hit5) == -repunit(inst.m + 4)


def test_column_sums_cannot_start_a_carry_up_to_k6():
    # with at most five positive summands, a tag column sums to at most 5
    # and a clause column to at most 10; the digit budget justifying the
    # base-10 packing for k <= 6
    rng = random.Random(33)
    for _ in range(10):
        inst = random_instance(4, 3, rng.randrange(10**6))
        for k in (3, 6):
            ks = sat_to_ksum(inst, k)
            n_digits = inst.m + len(ks.group_sizes)
            positives = [v for v in ks.integers if v > 0]
            col_max = [0] * n_digits
            for v in positives:
                for c, d in enumerate(digits_of(v, n_digits)):
                    col_max[c] = max(col_max[c], d)
            worst = [(k - 1) * cm for cm in col_max]
            assert all(w <= 10 for w in worst)


def test_carry_overflow_example_is_digit_exact():
    demo = carry_overflow_example()
    assert demo["collides"]
    assert demo["sum"] == 11 == demo["repunit"]
    assert sum(demo["addends"]) == 11
    # five two-digits values 02 plus one 01: the carry fabricates 11
    assert sorted(demo["addends"], reverse=True) == [2, 2, 2, 2, 2, 1]
