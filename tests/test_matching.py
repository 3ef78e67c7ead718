"""Kuhn-Munkres assignment against a permutation brute force and the subset DP,
and the 0/1 perfect matcher against both, its matrices handed over as each
row's nonzero columns."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontomerge.matching import max_weight_assignment, perfect_assignment

from .reference import nonzero_columns, reference_perfect_assignment


def brute_force_total(weights):
    n = len(weights)
    return max(
        sum((weights[i][p[i]] for i in range(n)), Fraction(0))
        for p in permutations(range(n))
    )


def subset_dp_assignment(weights):
    """The O(n^2 * 2^n) subset DP that Kuhn-Munkres replaced; its tie rule is the spec."""
    n = len(weights)
    if n == 0:
        return Fraction(0), ()
    if any(len(row) != n for row in weights):
        raise ValueError("weight matrix must be square")

    size = 1 << n
    best: list[Fraction | None] = [None] * size
    choice: list[int] = [-1] * size
    best[0] = Fraction(0)
    for mask in range(size):
        if best[mask] is None:
            continue
        row = bin(mask).count("1")
        if row == n:
            continue
        for col in range(n):
            bit = 1 << col
            if mask & bit:
                continue
            total = best[mask] + weights[row][col]
            nxt = mask | bit
            if best[nxt] is None or total > best[nxt]:
                best[nxt] = total
                choice[nxt] = col

    full = size - 1
    assignment = [-1] * n
    mask = full
    while mask:
        col = choice[mask]
        row = bin(mask).count("1") - 1
        assignment[row] = col
        mask &= ~(1 << col)
    return best[full], tuple(assignment)


def test_empty_matrix():
    total, assignment = max_weight_assignment([])
    assert total == 0
    assert assignment == ()


def test_single_cell():
    total, assignment = max_weight_assignment([[Fraction(1, 3)]])
    assert total == Fraction(1, 3)
    assert assignment == (0,)


def test_prefers_cross_assignment():
    weights = [
        [Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(0)],
    ]
    total, assignment = max_weight_assignment(weights)
    assert total == 2
    assert assignment == (1, 0)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        max_weight_assignment([[Fraction(1)], [Fraction(0)]])


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    cell = st.builds(
        Fraction,
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=4),
    )
    return [[draw(cell) for _ in range(n)] for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_matches_brute_force(weights):
    total, assignment = max_weight_assignment(weights)
    assert total == brute_force_total(weights)
    # assignment is an injective pick achieving the reported total
    assert sorted(assignment) == list(range(len(weights)))
    assert sum(
        (weights[i][j] for i, j in enumerate(assignment)), Fraction(0)
    ) == total


@st.composite
def tie_heavy_matrices(draw):
    """Up to 7x7: 0/1 cells (many optimal assignments) or small fractions."""
    n = draw(st.integers(min_value=1, max_value=7))
    if draw(st.booleans()):
        cell = st.sampled_from([0, 1])
    else:
        cell = st.builds(
            Fraction,
            st.integers(min_value=0, max_value=3),
            st.sampled_from([1, 2, 3, 6]),
        )
    return [[draw(cell) for _ in range(n)] for _ in range(n)]


@settings(max_examples=500, deadline=None)
@given(tie_heavy_matrices())
def test_matches_subset_dp_including_ties(weights):
    assert max_weight_assignment(weights) == subset_dp_assignment(weights)


def test_wide_matrix_with_known_optimum():
    # a shuffled permutation of 1s over noise below 1/64: the permutation
    # beats every other assignment, whose noise sums to less than one
    n = 64
    rng = random.Random(64)
    perm = list(range(n))
    rng.shuffle(perm)
    weights = [
        [Fraction(1) if perm[r] == c else Fraction(rng.randrange(64), 64 * 64)
         for c in range(n)]
        for r in range(n)
    ]
    total, assignment = max_weight_assignment(weights)
    assert assignment == tuple(perm)
    assert total == n


@st.composite
def zero_one_matrices(draw):
    """Square 0/1 matrices, n <= 8, at a drawn density of ones."""
    n = draw(st.integers(min_value=0, max_value=8))
    density = draw(st.sampled_from([0.2, 0.35, 0.5, 0.65, 0.8, 0.9]))
    bits = draw(st.lists(st.floats(0, 1, exclude_max=True), min_size=n * n, max_size=n * n))
    return [[int(bit < density) for bit in bits[r * n:(r + 1) * n]] for r in range(n)]


def perfect_oracle(weights):
    """Kuhn-Munkres's assignment when it is perfect over the ones, else None."""
    total, assignment = max_weight_assignment(weights)
    return assignment if total == len(weights) else None


@settings(max_examples=500, deadline=None)
@given(zero_one_matrices())
def test_perfect_assignment_matches_kuhn_munkres_and_subset_dp(weights):
    expected = perfect_oracle(weights)
    assert perfect_assignment(nonzero_columns(weights)) == expected
    if len(weights) <= 7:
        total, assignment = subset_dp_assignment(weights)
        assert expected == (assignment if total == len(weights) else None)


def _banded(n, rng, extra):
    """A hidden permutation of ones plus ``extra`` random ones per row."""
    perm = list(range(n))
    rng.shuffle(perm)
    weights = [[0] * n for _ in range(n)]
    for r in range(n):
        weights[r][perm[r]] = 1
        for c in rng.sample(range(n), extra):
            weights[r][c] = 1
    return weights


@pytest.mark.parametrize("n", [12, 40])
@pytest.mark.parametrize("extra", [0, 1, 3])
def test_wide_perfect_assignment_keeps_the_tie_rule(n, extra):
    rng = random.Random(n * 10 + extra)
    weights = _banded(n, rng, extra)
    assert perfect_assignment(nonzero_columns(weights)) == perfect_oracle(weights) is not None
    weights[rng.randrange(n)] = [0] * n  # a row with no one: no perfect matching
    assert perfect_assignment(nonzero_columns(weights)) is None
    weights = _banded(n, rng, extra)
    weights[0] = weights[1] = [1] + [0] * (n - 1)  # two rows share their only column
    assert perfect_assignment(nonzero_columns(weights)) is None


@st.composite
def forced_column_lists(draw):
    """Column lists, n <= 12, rich in one-column rows: a permutation, a
    forced chain (row r holds columns p[r - 1] and p[r], row 0 only p[0],
    the rows then shuffled), or one-column rows beside wider ones; some
    made infeasible by giving two rows one and the same single column."""
    n = draw(st.integers(min_value=0, max_value=12))
    perm = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(("permutation", "chain", "mixed")))
    if shape == "permutation":
        cols = [[c] for c in perm]
    elif shape == "chain":
        chain = [sorted({perm[r], perm[r - 1]}) if r else [perm[0]] for r in range(n)]
        cols = [chain[r] for r in draw(st.permutations(range(n)))]
    else:
        cols = []
        for c in perm:
            extra = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
            cols.append([c] if draw(st.integers(0, 2)) == 0 else sorted({c, *extra}))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        cols[i] = cols[j] = [cols[i][0]]
    return cols


@settings(max_examples=500, deadline=None)
@given(forced_column_lists())
@example([[1, 2, 3], [2, 3], [0, 2, 3], [0, 1]])  # row 1 must trade column 2 for 3
def test_forced_rows_keep_the_oracle_and_kuhn_munkres_answer(cols):
    weights = [[int(c in row) for c in range(len(cols))] for row in cols]
    assert perfect_assignment(cols) == reference_perfect_assignment(cols) == perfect_oracle(weights)


def test_perfect_assignment_rejects_non_square():
    # three rows, so columns 0 to 2 only, each row ascending
    for cols in ([[0], [1], [2, 3]], [[-1], [0], [1]], [[0], [2, 5, 1], [1]],
                 [[0], [0, -2, 1], [1]], [[1, 0], [0], [2]], [[0, 0], [1], [2]]):
        with pytest.raises(ValueError):
            perfect_assignment(cols)
    with pytest.raises(ValueError):
        nonzero_columns([[1], [0]])
