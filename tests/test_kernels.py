import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pairgee.ustat
from pairgee import (Composition, EvaluationError, InputError, Kernel,
                     aitchison_distance, apply_pseudocount, pairwise_responses,
                     ustatistic_mean)
from pairgee.kernels import _close_counts

from oracles import (aitchison_by_hand, icc_pair_by_hand, mww_by_hand,
                     sq_half_diff_by_hand)


# ----------------------------------------------------------- compositions

def test_composition_validation():
    Composition(np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        Composition(np.array([0.5, 0.6]))
    with pytest.raises(InputError):
        Composition(np.array([1.0, 0.0]) / 1.0)
    with pytest.raises(InputError):
        Composition(np.array([1.0]))


def test_apply_pseudocount_additive_zero_is_plain_closure():
    comp = apply_pseudocount(np.array([1.0, 1.0, 2.0]), "additive", 0.0)
    assert np.allclose(comp.values, [0.25, 0.25, 0.5])
    assert not comp.pseudocount_applied


def test_apply_pseudocount_half_min():
    comp = apply_pseudocount(np.array([0.0, 1.0, 1.0]), "half-min")
    assert np.allclose(comp.values, [0.2, 0.4, 0.4])
    assert comp.pseudocount_applied


def test_apply_pseudocount_rejects_bad_input():
    with pytest.raises(InputError):
        apply_pseudocount(np.zeros(3), "half-min")
    with pytest.raises(InputError):
        apply_pseudocount(np.array([0.0, 1.0]), "additive", 0.0)
    with pytest.raises(InputError):
        apply_pseudocount(np.array([-1.0, 1.0]), "half-min")
    with pytest.raises(InputError):
        apply_pseudocount(np.array([1.0, 1.0]), "replace-all")


@pytest.mark.parametrize("policy,eps", [("half-min", 0.0), ("additive", 0.5),
                                        ("additive", 1e-9)])
def test_a_count_matrix_closes_to_its_rows_closed_one_at_a_time(policy, eps):
    counts = np.random.default_rng(4).poisson(
        np.random.default_rng(5).gamma(0.5, 20.0, size=(60, 12))).astype(float)
    counts[counts.sum(axis=1) == 0, 0] = 1.0
    rows = np.vstack([apply_pseudocount(row, policy, eps).values for row in counts])
    assert np.any(counts == 0)
    assert _close_counts(counts, policy, eps).tobytes() == rows.tobytes()


@pytest.mark.parametrize("bad,policy,eps,message", [
    ([1.0, np.nan], "half-min", 0.0, "counts must be finite and nonnegative"),
    ([0.0, 0.0], "additive", 0.0, "all-zero count vector"),
    ([0.0, 3.0], "additive", np.nan, "eps must be finite and nonnegative"),
    ([0.0, 3.0], "additive", 0.0, "left nonpositive entries"),
    ([0.0, 3.0], "half-min", 0.5, "half-min pseudocount takes no eps, got 0.5"),
    ([0.0, 3.0], "replace-all", 0.0, "unknown pseudocount policy"),
    ([1e308, 1e308], "half-min", 0.0, "finite and strictly positive"),
    ([1.7e308, 1.0], "additive", 1e308, "finite and strictly positive")],
    ids=["non-finite", "all-zero", "eps-nan", "additive-zero", "half-min-eps",
         "policy", "sum-overflow", "entry-overflow"])
def test_closing_counts_raises_each_fault_in_turn(bad, policy, eps, message):
    # the last row of a matrix and that row alone raise the same fault; the
    # half-min eps was ignored, a row sum that overflowed gave zeros
    counts = np.array([[1.0, 2.0], bad])
    with pytest.raises(InputError, match=message):
        _close_counts(counts, policy, eps)
    with pytest.raises(InputError, match=message):
        apply_pseudocount(counts[-1], policy, eps)


def test_a_one_column_count_matrix_is_no_composition():
    for call in (lambda: _close_counts(np.array([[1.0], [3.0]]), "half-min", 0.0),
                 lambda: apply_pseudocount(np.array([3.0]), "additive", 0.5)):
        with pytest.raises(InputError, match="a composition needs at least 2 components"):
            call()


# ------------------------------------------------------ aitchison distance

def test_aitchison_zero_on_equal_compositions():
    y = np.array([0.1, 0.2, 0.7])
    assert aitchison_distance(y, y) == 0.0


def test_aitchison_hand_computed_value():
    y1 = np.array([0.5, 0.5])
    y2 = np.array([0.8, 0.2])
    # independent hand computation through the log-ratio definition
    assert aitchison_by_hand(y1, y2) == pytest.approx(math.log(2.0) * math.sqrt(2.0),
                                                      rel=1e-12)
    assert aitchison_distance(y1, y2) == pytest.approx(aitchison_by_hand(y1, y2),
                                                       rel=1e-12)
    assert aitchison_distance(y1, y2) == pytest.approx(0.98026, abs=1e-5)


def test_aitchison_scale_invariance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        y1 = rng.dirichlet(np.ones(6))
        y2 = rng.dirichlet(np.ones(6))
        base = aitchison_distance(y1, y2)
        for c in (1e-6, 0.5, 3.0, 1e7):
            scaled = c * y2
            scaled = scaled / scaled.sum()
            assert abs(aitchison_distance(y1, scaled) - base) <= 1e-12 * max(1.0, base)


def test_aitchison_metric_axioms_on_random_triples():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        a, b, c = rng.dirichlet(np.ones(5), size=3)
        dab = aitchison_distance(a, b)
        dba = aitchison_distance(b, a)
        dac = aitchison_distance(a, c)
        dcb = aitchison_distance(c, b)
        assert dab == dba
        assert dab >= 0.0
        assert dab <= dac + dcb + 1e-10


def test_aitchison_input_validation():
    with pytest.raises(InputError):
        aitchison_distance(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(InputError):
        aitchison_distance(np.array([0.2, 0.8]), np.array([0.2, 0.3, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_every_aitchison_entry_point_rejects_a_non_finite_composition(bad):
    # pairwise_responses and ustatistic_mean gave nan for a nan or inf entry
    Y = np.array([[0.2, 0.8], [bad, 1.0], [0.5, 0.5]])
    i1, i2 = np.array([0, 0, 1]), np.array([1, 2, 2])
    for call in (lambda: pairwise_responses(Kernel.aitchison(), Y, i1, i2),
                 lambda: ustatistic_mean(Kernel.aitchison(), Y),
                 lambda: aitchison_distance(Y[0], Y[1])):
        with pytest.raises(InputError):
            call()


# ----------------------------------------------------------- other kernels

def _one_pair_each(kernel, Y, pairs):
    """The kernel's values on the given (i1, i2) pairs of the rows of Y."""
    i1, i2 = np.array(pairs).T
    return pairwise_responses(kernel, np.asarray(Y, dtype=float), i1, i2)


def test_mww_indicator_convention():
    y = [[1.0], [2.0], [3.0], [3.0]]
    pairs = [(0, 1), (1, 0), (2, 3)]
    # ties count as 1 under the default "<=" convention
    assert np.array_equal(_one_pair_each(Kernel.mww(), y, pairs), [1.0, 0.0, 1.0])
    assert np.array_equal(_one_pair_each(Kernel.mww("le"), y, pairs), [1.0, 0.0, 1.0])
    assert np.array_equal(_one_pair_each(Kernel.mww("midrank"), y, pairs),
                          [1.0, 0.0, 0.5])


def test_sq_half_diff():
    vals = _one_pair_each(Kernel.sqhalfdiff(), [[1.0], [2.0], [2.0]], [(0, 1), (1, 2)])
    assert np.array_equal(vals, [0.5, 0.0])


def test_icc_pair_kernel_values_and_symmetry():
    ratings = [[1.0, 1.0], [1.0, 1.0], [1.0, 3.0]]
    vals = _one_pair_each(Kernel.icc(), ratings, [(0, 1), (2, 0), (0, 2)])
    assert vals.shape == (3, 2)
    assert np.array_equal(vals[0], [0.0, 0.0])
    assert vals[1] == pytest.approx([0.5, 1.0])
    assert np.array_equal(vals[1], vals[2])
    with pytest.raises(InputError, match="at least 2 raters"):
        _one_pair_each(Kernel.icc(), [[1.0], [2.0]], [(0, 1)])


# ---------------------------------------------------- vectorised evaluation

def test_pairwise_responses_match_scalar_functions():
    rng = np.random.default_rng(5)
    n = 8
    i1, i2 = np.triu_indices(n, k=1)

    comps = rng.dirichlet(np.ones(4), size=n)
    vals = pairwise_responses(Kernel.aitchison(), comps, i1, i2)
    for k in range(len(i1)):
        assert vals[k] == pytest.approx(aitchison_by_hand(comps[i1[k]], comps[i2[k]]),
                                        rel=1e-12)

    y = rng.normal(size=(n, 1))
    vals = pairwise_responses(Kernel.mww(), y, i1, i2)
    for k in range(len(i1)):
        assert vals[k] == mww_by_hand(y[i1[k], 0], y[i2[k], 0])

    vals = pairwise_responses(Kernel.sqhalfdiff(), y, i1, i2)
    for k in range(len(i1)):
        assert vals[k] == pytest.approx(sq_half_diff_by_hand(y[i1[k], 0], y[i2[k], 0]))

    ratings = rng.normal(size=(n, 3))
    vals = pairwise_responses(Kernel.icc(), ratings, i1, i2)
    for k in range(len(i1)):
        assert vals[k] == pytest.approx(icc_pair_by_hand(ratings[i1[k]],
                                                         ratings[i2[k]]))


def _evaluator_cases():
    """(kernel, Y, one-pair function) for every kind, on 9 subjects."""
    rng = np.random.default_rng(12)
    comps = rng.dirichlet(np.ones(5), size=9)
    tied = rng.integers(0, 4, size=(9, 1)).astype(float)
    ratings = rng.normal(size=(9, 3))
    custom = Kernel.custom(lambda a, b: (a[0] * b[1] - b[0], a[1] - b[1]), output_dim=2)
    return {
        "aitchison": (Kernel.aitchison(), comps, aitchison_distance),
        "mww-le": (Kernel.mww(), tied, lambda a, b: mww_by_hand(a[0], b[0])),
        "mww-midrank": (Kernel.mww("midrank"), tied,
                        lambda a, b: mww_by_hand(a[0], b[0], "midrank")),
        "sqhalfdiff": (Kernel.sqhalfdiff(), tied,
                       lambda a, b: sq_half_diff_by_hand(a[0], b[0])),
        "icc": (Kernel.icc(), ratings, icc_pair_by_hand),
        "custom": (custom, ratings, custom.func),
    }


EVALUATOR_CASES = _evaluator_cases()
# all 36 unordered pairs of 9 subjects, every other one reversed, shuffled
_I1, _I2 = np.triu_indices(9, k=1)
_SWAP = np.arange(36) % 2 == 1
_I1, _I2 = np.where(_SWAP, _I2, _I1), np.where(_SWAP, _I1, _I2)
_ORDER = np.random.default_rng(13).permutation(36)
_I1, _I2 = _I1[_ORDER], _I2[_ORDER]


def _check_evaluator(name, chunk):
    kernel, Y, one_pair = EVALUATOR_CASES[name]
    want = np.array([one_pair(Y[a], Y[b]) for a, b in zip(_I1, _I2)], dtype=float)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pairgee.ustat, "CHUNK_PAIRS", chunk)
        got = pairwise_responses(kernel, Y, _I1, _I2)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 36])
@pytest.mark.parametrize("name", sorted(EVALUATOR_CASES))
def test_pairwise_responses_are_the_one_pair_values_at_any_chunking(name, chunk):
    _check_evaluator(name, chunk)


@given(name=st.sampled_from(sorted(EVALUATOR_CASES)), chunk=st.integers(1, 50))
def test_pairwise_responses_are_the_one_pair_values_at_drawn_chunk_sizes(name, chunk):
    _check_evaluator(name, chunk)


@pytest.mark.parametrize("kind", ["mww", "sqhalfdiff"])
def test_scalar_kernels_reject_several_outcome_columns(kind):
    Y = np.random.default_rng(6).normal(size=(6, 2))
    with pytest.raises(InputError, match="one outcome column"):
        ustatistic_mean(getattr(Kernel, kind)(), Y)


@pytest.mark.parametrize("kernel", [Kernel.mww(), Kernel.mww("midrank"),
                                    Kernel.sqhalfdiff(),
                                    Kernel.custom(lambda a, b: a[0] - 2.0 * b[0])],
                         ids=["mww", "mww-midrank", "sqhalfdiff", "custom"])
def test_a_1d_outcome_array_is_one_outcome_column(kernel):
    y = np.array([1.0, 3.0, 3.0, -0.5])
    i1, i2 = np.triu_indices(4, k=1)
    want = pairwise_responses(kernel, y[:, None], i1, i2)
    assert np.array_equal(pairwise_responses(kernel, y, i1, i2), want)
    assert ustatistic_mean(kernel, y) == ustatistic_mean(kernel, y[:, None])


@pytest.mark.parametrize("kernel,message", [
    (Kernel.aitchison(), "outcome length >= 2"), (Kernel.icc(), "at least 2 raters")],
    ids=["aitchison", "icc"])
def test_a_1d_outcome_array_is_too_short_for_the_vector_kernels(kernel, message):
    y = np.array([0.2, 0.5, 0.3])
    with pytest.raises(InputError, match=message):
        pairwise_responses(kernel, y, np.array([0, 1]), np.array([1, 2]))


def test_mww_midrank_vectorised():
    y = np.array([[1.0], [1.0], [2.0]])
    i1, i2 = np.array([0, 0, 1]), np.array([1, 2, 2])
    vals = pairwise_responses(Kernel.mww(ties="midrank"), y, i1, i2)
    assert np.array_equal(vals, [0.5, 1.0, 1.0])


@pytest.mark.parametrize("make", [lambda: Kernel.mww(ties="midrnak"),
                                  lambda: Kernel("mww", output_dim=2),
                                  lambda: Kernel.custom(lambda a, b: 1.0, output_dim=0),
                                  lambda: Kernel.custom(lambda a, b: 1.0, output_dim=-1),
                                  lambda: Kernel("gaussian"),
                                  lambda: Kernel("custom")],
                         ids=["ties", "output_dim", "custom_output_dim_0",
                              "custom_output_dim_-1", "kind", "custom_without_func"])
def test_kernel_rejects_unknown_ties_and_a_wrong_output_dim(make):
    with pytest.raises(InputError):
        make()


@pytest.mark.parametrize("i1,i2,bad", [([-1], [0], -1), ([0], [3], 3)],
                         ids=["negative", "past-n"])
def test_pairwise_responses_rejects_a_pair_index_outside_the_subjects(i1, i2, bad):
    # a negative index read a subject from the end, one past n was a bare IndexError
    y = np.array([1.0, 2.0, 3.0])
    for kernel in (Kernel.mww(), Kernel.custom(lambda a, b: 0.0)):
        with pytest.raises(InputError, match=f"pair index {bad} is outside the 3 subjects"):
            pairwise_responses(kernel, y, np.array(i1), np.array(i2))


@pytest.mark.parametrize("make,field", [
    (lambda: Kernel("mww", func=lambda a, b: 1.0), "func"),
    (lambda: Kernel("aitchison", ties="midrank"), "ties")], ids=["func", "ties"])
def test_a_kernel_rejects_a_field_its_kind_does_not_read(make, field):
    with pytest.raises(InputError, match=f"takes no {field}$"):
        make()
    assert Kernel("aitchison", ties="le") == Kernel.aitchison()


def test_custom_kernel_failure_carries_pair():
    def bad(y1, y2):
        if y1[0] > 0.5:
            raise ValueError("boom")
        return 0.0

    y = np.array([[0.1], [0.9], [0.2]])
    with pytest.raises(EvaluationError) as err:
        pairwise_responses(Kernel.custom(bad), y, np.array([0, 1]), np.array([1, 2]))
    assert err.value.pair == (1, 2)


def test_custom_kernel_nonfinite_rejected():
    y = np.array([[0.0], [1.0]])
    with pytest.raises(EvaluationError):
        pairwise_responses(Kernel.custom(lambda a, b: float("nan")),
                           y, np.array([0]), np.array([1]))
