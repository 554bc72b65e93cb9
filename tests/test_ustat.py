import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairgee import (InputError, Kernel, PairScoreTable, enumerate_pairs,
                     hajek_scores, make_rng, pair_count, projection_variance,
                     ustatistic_mean)
from pairgee.ustat import (canonical_order, interleaved_accumulate, pair_chunks,
                           pair_indices, pair_rows, pass_workers)

from oracles import (brute_hajek, brute_pairs, brute_projection_variance,
                     brute_ustat_mean)


# ------------------------------------------------------------- enumeration

def test_enumerate_pairs_small():
    assert enumerate_pairs(3).tolist() == [[0, 1], [0, 2], [1, 2]]
    assert len(enumerate_pairs(4)) == 6
    assert len(enumerate_pairs(100)) == 4950


def test_enumerate_pairs_matches_brute_force_and_is_sorted():
    for n in (2, 5, 13):
        pairs = enumerate_pairs(n)
        assert pairs.dtype == np.int64 and pairs.flags.c_contiguous
        assert pairs.tolist() == [list(p) for p in brute_pairs(n)]
        keys = pairs[:, 0] * n + pairs[:, 1]
        assert np.all(np.diff(keys) > 0)


def test_enumerate_pairs_rejects_single_subject():
    with pytest.raises(InputError):
        enumerate_pairs(1)


# ------------------------------------------------------------ u-statistics

@st.composite
def _pair_range(draw):
    n = draw(st.integers(2, 400))
    lo = draw(st.integers(0, pair_count(n)))
    return n, lo, draw(st.integers(lo, pair_count(n)))


@settings(max_examples=200)
@given(_pair_range())
def test_pair_indices_decode_a_range_of_enumerate_pairs(case):
    n, lo, hi = case
    i1, i2 = pair_indices(n, lo, hi)
    assert i1.dtype == i2.dtype == np.int64
    t1, t2 = np.triu_indices(n, k=1)
    assert np.array_equal(i1, t1[lo:hi]) and np.array_equal(i2, t2[lo:hi])


@pytest.mark.parametrize("n", [50_000, 1_000_000])
def test_pair_indices_at_row_boundaries_of_large_n(n):
    # row a (the pairs with i1 = a) starts at pair a (2n - a - 1) / 2; the
    # two pairs before a row start close row a - 1, the two after open row a
    for a in (1, 2, n // 3, n // 2, n - 3):
        start = a * (2 * n - a - 1) // 2
        i1, i2 = pair_indices(n, start - 2, start + 2)
        assert i1.tolist() == [a - 1, a - 1, a, a]
        assert i2.tolist() == [n - 2, n - 1, a + 1, a + 2]
    i1, i2 = pair_indices(n, 0, 2)
    assert i1.tolist() == [0, 0] and i2.tolist() == [1, 2]
    i1, i2 = pair_indices(n, pair_count(n) - 3, pair_count(n))
    assert i1.tolist() == [n - 3, n - 3, n - 2]
    assert i2.tolist() == [n - 2, n - 1, n - 1]


@pytest.mark.parametrize("n", [2, 7, 50_000])
def test_pair_rows_invert_pair_indices(n):
    lo, hi = pair_count(n) // 3, min(pair_count(n), pair_count(n) // 3 + 500)
    i1, i2 = pair_indices(n, lo, hi)
    assert pair_rows(n, i1, i2).tolist() == list(range(lo, hi))
    assert pair_rows(n, i1[::-3], i2[::-3]).tolist() == list(range(lo, hi))[::-3]


def test_pair_indices_and_chunks_reject_what_has_no_pairs():
    with pytest.raises(InputError, match=r"pair range \[0, 4\) is outside the 3 pairs"):
        pair_indices(3, 0, 4)
    with pytest.raises(InputError, match=r"pair range \[2, 1\)"):
        pair_indices(3, 2, 1)
    with pytest.raises(InputError, match="need at least 2 subjects to form pairs, got 1"):
        pair_chunks(1)


def test_pair_chunks_cover_the_pairs_in_order(chunk_pairs):
    chunk_pairs(7)
    chunks = list(pair_chunks(9))
    assert [sl for sl, _, _ in chunks] == [slice(0, 7), slice(7, 14), slice(14, 21),
                                           slice(21, 28), slice(28, 35), slice(35, 36)]
    assert np.array_equal(np.concatenate([np.column_stack([a, b]) for _, a, b in chunks]),
                          enumerate_pairs(9))


def test_ustat_constant_kernel():
    y = np.arange(7.0)
    val = ustatistic_mean(Kernel.custom(lambda a, b: 4.25), y)
    assert val == pytest.approx(4.25)


def test_ustat_half_squared_difference_is_sample_variance():
    y = np.array([1.0, 2.0, 3.0])
    val = ustatistic_mean(Kernel.sqhalfdiff(), y[:, None])
    assert val == pytest.approx(1.0, abs=1e-15)
    assert val == pytest.approx(np.var(y, ddof=1), abs=1e-15)


def test_ustat_pair_average_is_sample_mean():
    rng = np.random.default_rng(11)
    y = rng.normal(size=17)
    val = ustatistic_mean(Kernel.custom(lambda a, b: 0.5 * (a[0] + b[0])),
                          y[:, None])
    brute = brute_ustat_mean(lambda a, b: 0.5 * (a[0] + b[0]), y[:, None])
    assert val == pytest.approx(float(brute[0]), rel=1e-13)
    assert val == pytest.approx(y.mean(), rel=1e-12)


def test_ustat_symmetric_kernel_permutation_invariance():
    rng = np.random.default_rng(8)
    y = rng.normal(size=(40, 1))
    base = ustatistic_mean(Kernel.sqhalfdiff(), y)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(40)
        val = ustatistic_mean(Kernel.sqhalfdiff(), y[perm])
        assert abs(val - base) <= 1e-12 * max(1.0, abs(base))


def test_ustat_vector_kernel():
    rng = np.random.default_rng(4)
    Y = rng.normal(size=(9, 3))
    val = ustatistic_mean(Kernel.icc(), Y)
    brute = brute_ustat_mean(
        lambda a, b: (0.5 * (a.mean() - b.mean()) ** 2,
                      0.5 * np.mean((a - b) ** 2)), Y)
    assert np.allclose(val, brute, rtol=1e-12)


def test_ustat_builtin_kernel_takes_its_output_dim_from_its_kind():
    r = np.random.default_rng(4).normal(size=(9, 3))
    assert np.array_equal(ustatistic_mean(Kernel("icc"), r),
                          ustatistic_mean(Kernel.icc(), r))


# ------------------------------------------------------------ hajek scores

def test_hajek_three_subjects_explicit():
    a, b, c = 1.5, -0.25, 4.0
    table = PairScoreTable(3, np.array([a, b, c]))
    vt = hajek_scores(table)
    assert np.allclose(vt[:, 0], [a + b, a + c, b + c], rtol=0, atol=0)


def test_hajek_equal_scores_and_two_subjects():
    table = PairScoreTable(4, np.full(6, 2.5))
    assert np.allclose(hajek_scores(table), 5.0)
    table2 = PairScoreTable(2, np.array([3.0]))
    assert np.allclose(hajek_scores(table2), 6.0)


@pytest.mark.parametrize("n", [2, 3, 5, 17])
def test_hajek_matches_brute_force(n):
    rng = np.random.default_rng(n)
    scores = rng.normal(size=(pair_count(n), 2))
    table = PairScoreTable(n, scores)
    fast = hajek_scores(table)
    brute = brute_hajek(n, scores)
    assert np.array_equal(fast, brute)


@pytest.mark.parametrize("n,lo,hi", [
    (7, 0, 21), (7, 3, 17), (7, 8, 9), (13, 5, 70), (13, 0, 1), (13, 77, 78),
    (40, 17, 779), (40, 500, 780)])
def test_accumulate_equals_a_loop_over_the_pairs_of_a_range(n, lo, hi):
    # ranges that start and end mid-row, as a chunk's do: each subject's
    # sums are the scores of its pairs added in pair order, from zero
    i1, i2 = pair_indices(n, lo, hi)
    # magnitudes from 1e-8 to 1e8, so that any other order of addition rounds differently
    rng = np.random.default_rng(n + lo)
    scores = rng.normal(size=(2, hi - lo)) * 10.0 ** rng.integers(-8, 9, size=(2, hi - lo))
    loop = np.zeros((n, 2))
    for k, (a, b) in enumerate(zip(i1, i2)):
        loop[a] = loop[a] + scores[:, k]
        loop[b] = loop[b] + scores[:, k]
    fast = interleaved_accumulate(n, i1, i2, scores.T)
    assert fast.tobytes() == loop.tobytes()


def test_hajek_double_counting_identity():
    rng = np.random.default_rng(21)
    n = 9
    scores = rng.normal(size=(pair_count(n), 3))
    vt = hajek_scores(PairScoreTable(n, scores))
    lhs = vt.sum(axis=0)
    rhs = (2.0 / (n - 1)) * 2.0 * scores.sum(axis=0)
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_incomplete_table_rejected():
    with pytest.raises(InputError):
        PairScoreTable(4, np.ones(5))


@pytest.mark.parametrize("n", [3, 7, 40])
def test_canonical_order_is_none_in_order_and_the_stable_sort_otherwise(n):
    pairs = enumerate_pairs(n)
    assert canonical_order(n, pairs[:, 0], pairs[:, 1]) is None
    N = len(pairs)
    rng = np.random.default_rng(n)
    for perm in (np.arange(N)[::-1], np.roll(np.arange(N), 1), rng.permutation(N)):
        i1, i2 = pairs[perm, 0], pairs[perm, 1]
        assert np.array_equal(canonical_order(n, i1, i2),
                              np.argsort(i1 * n + i2, kind="stable"))


# ----------------------------------------------------- projection variance

def test_projection_variance_identical_scores_is_zero():
    assert np.array_equal(projection_variance(np.full((5, 2), 3.3)),
                          np.zeros((2, 2)))


def test_projection_variance_small_example():
    su = projection_variance(np.array([1.0, -1.0, 0.0])[:, None])
    assert su[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3, 5, 17])
def test_projection_variance_matches_brute_force(n):
    rng = np.random.default_rng(100 + n)
    vt = rng.normal(size=(n, 2))
    fast = projection_variance(vt)
    brute = brute_projection_variance(vt)
    assert np.allclose(fast, brute, rtol=1e-13, atol=1e-15)
    eig = np.linalg.eigvalsh(fast)
    assert eig.min() >= -1e-12 * max(1.0, np.trace(fast))


@given(st.integers(2, 300), st.integers(1, 5), st.integers(-5, 5))
def test_projection_variance_is_the_subject_loop_bit_for_bit(n, q, scale):
    # criterion 6 compares projected scores exactly; the covariance of
    # those scores must equal the sequential loop of the definition too
    v = make_rng(n, q, scale + 5).normal(size=(n, q)) * 10.0 ** scale
    assert np.array_equal(projection_variance(v), brute_projection_variance(v))


def test_degenerate_kernel_projection_shrinks():
    # product kernel of centered variables projects to (near) zero per subject
    rng = np.random.default_rng(77)
    n = 600
    z = rng.normal(1.0, 1.0, size=n)
    pairs = enumerate_pairs(n)
    scores = (1.0 - z[pairs[:, 0]]) * (1.0 - z[pairs[:, 1]])
    su = projection_variance(hajek_scores(PairScoreTable(n, scores)))
    assert su[0, 0] < 0.1
    assert np.var(scores) > 0.5


# ----------------------------------------------------- chunking

def test_a_pass_matches_plain_sum(chunk_pairs):
    rng = np.random.default_rng(31)
    vals = rng.normal(size=5000)

    def part(sl):
        return (vals[sl].sum(), (vals[sl] ** 2).sum())

    chunk_pairs(1024)
    with pass_workers(lambda: part, len(vals)) as workers:
        chunked = workers.reduce()
    chunk_pairs(len(vals))
    with pass_workers(lambda: part, len(vals)) as workers:
        whole = workers.reduce()
    assert chunked[0] == pytest.approx(whole[0], rel=1e-10)
    assert chunked[1] == pytest.approx(whole[1], rel=1e-10)


@pytest.mark.parametrize("make,message", [
    (lambda: PairScoreTable(1, np.ones(0)), "needs n >= 2 subjects"),
    (lambda: PairScoreTable(3, [1.0, np.nan, 2.0]), "pair scores must all be finite"),
    (lambda: projection_variance(np.ones((1, 2))), "at least 2 subjects")],
    ids=["one-subject", "non-finite", "one-projection"])
def test_score_tables_and_projections_reject_a_degenerate_input(make, message):
    with pytest.raises(InputError, match=message):
        make()


def test_a_pass_over_no_items_is_an_input_error():
    with pass_workers(lambda: (lambda sl: (0.0,)), 0) as workers:
        with pytest.raises(InputError, match="nothing to reduce over"):
            workers.reduce()
