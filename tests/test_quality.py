import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_rng, random_nonneg, sparsify, to_csr
from nmfkit.errors import (DegenerateError, MetricError, OutOfMemoryError,
                           RankError, ShapeError)
from nmfkit.factor import FactorModel
from nmfkit.matcore import EPS, DataMatrix, frobenius_sq
from nmfkit.quality import (connectivity, consensus, cophenetic, dispersion,
                            distance, evar, feature_scores, fit_summary, rss,
                            sparseness, _average_linkage_cophenetic, _hoyer)


def model_of(w, h):
    return FactorModel(np.asarray(w, float), np.asarray(h, float),
                       "nmf-eu", None, 1, 0.0)


def hoyer_oracle(x):
    """(score, fault) of one vector from 1-d reductions, as the per-vector
    scorer computed them: the kind of a degenerate vector, else None."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 2:
        return 0.0, "length-%d" % x.size
    l2 = math.sqrt(float(np.einsum("i,i->", x, x)))
    if l2 == 0.0:
        return 0.0, "all-zero"
    rt = math.sqrt(x.size)
    return (rt - float(np.sum(np.abs(x))) / l2) / (rt - 1.0), None


def hoyer(x):
    """(score, fault) of one vector as `sparseness` scores each vector of a
    factor (`quality._hoyer`): the kind of a degenerate vector, else None."""
    (score,), fault, bad = _hoyer(np.reshape(x, (1, -1)))
    return float(score), fault if bad else None


class TestRssEvar:
    def test_exact_fit(self):
        rng = make_rng(0)
        w = rng.uniform(size=(5, 2))
        h = rng.uniform(size=(2, 4))
        m = model_of(w, h)
        assert rss(w @ h, m) == pytest.approx(0.0, abs=1e-24)
        assert evar(w @ h, m) == pytest.approx(1.0)

    def test_hand_case(self):
        m = model_of([[1.0]], [[1.0]])
        v = np.array([[2.0]])
        assert rss(v, m) == 1.0
        assert evar(v, m) == 0.75

    def test_csr_matches_dense(self):
        rng = make_rng(1)
        dense = random_nonneg(rng, 6, 5)
        dense[dense < 0.5] = 0.0
        w = rng.uniform(size=(6, 2))
        h = rng.uniform(size=(2, 5))
        m = model_of(w, h)
        assert abs(rss(to_csr(dense), m) - rss(dense, m)) <= 1e-12
        assert abs(evar(to_csr(dense), m) - evar(dense, m)) <= 1e-12

    def test_identity_holds_exactly_as_computed(self):
        for seed in range(20):
            rng = make_rng(seed)
            v = random_nonneg(rng, 4, 6)
            m = model_of(rng.uniform(size=(4, 2)), rng.uniform(size=(2, 6)))
            assert evar(v, m) == 1.0 - rss(v, m) / frobenius_sq(v)

    def test_all_zero_input_degenerate(self):
        with pytest.raises(DegenerateError):
            evar(np.zeros((3, 3)), model_of(np.ones((3, 1)), np.ones((1, 3))))


class TestDistance:
    def test_exact_fit_zero(self):
        rng = make_rng(2)
        w = rng.uniform(0.1, 1, size=(4, 2))
        h = rng.uniform(0.1, 1, size=(2, 4))
        m = model_of(w, h)
        assert distance(w @ h, m, "euclidean") == pytest.approx(0.0, abs=1e-12)
        assert distance(w @ h, m, "kl") == pytest.approx(0.0, abs=1e-10)

    def test_kl_scalar(self):
        m = model_of([[math.e]], [[1.0]])
        got = distance(np.array([[1.0]]), m, "kl")
        assert got == pytest.approx(math.e - 2.0, rel=1e-12)

    def test_euclidean_is_sqrt_rss(self):
        rng = make_rng(3)
        v = random_nonneg(rng, 5, 5)
        m = model_of(rng.uniform(size=(5, 2)), rng.uniform(size=(2, 5)))
        assert distance(v, m, "euclidean") == pytest.approx(
            math.sqrt(rss(v, m)), rel=1e-12)

    def test_unknown_metric(self):
        with pytest.raises(MetricError):
            distance(np.ones((2, 2)), model_of(np.ones((2, 1)),
                                               np.ones((1, 2))), "cosine")


class TestSparseness:
    def test_one_hot_column(self):
        assert hoyer([1.0, 0.0, 0.0, 0.0]) == (pytest.approx(1.0), None)

    def test_constant_column(self):
        assert hoyer([0.3, 0.3, 0.3, 0.3]) == (
            pytest.approx(0.0, abs=1e-12), None)

    def test_half_sparse_column(self):
        got, _ = hoyer([1.0, 1.0, 0.0, 0.0])
        assert got == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-12)

    def test_zero_column_is_degenerate_and_scores_zero(self):
        # the warning is the factor's, once (the test below)
        assert hoyer([0.0, 0.0]) == (0.0, "all-zero")

    @pytest.mark.parametrize("w, h, message", [
        (np.ones((30, 1)), np.ones((1, 20)),
         "sparseness: 20 length-1 vectors of H scored as 0"),
        (np.eye(5, 3) @ np.diag([1.0, 0.0, 0.0]), np.ones((3, 4)),
         "sparseness: 2 all-zero vectors of W scored as 0")],
        ids=["rank-1", "zero-columns"])
    def test_degenerate_vectors_warn_once_per_factor(self, w, h, message):
        # one warning per degenerate vector put 20 copies into summary.json
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sparseness(model_of(w, h))
        assert [str(x.message) for x in caught] == [message]

    @pytest.mark.parametrize("x", [[0.0], [], [0.0, 0.0], [3.0], [1e-200, 0],
                                   [0.3, 0.0, 2.5, 1e-9, 7.0]],
                             ids=["zero", "empty", "zeros", "one", "tiny",
                                  "five"])
    def test_vector_equals_oracle_bitwise(self, x):
        got = hoyer(x)
        assert type(got[0]) is float and got == hoyer_oracle(x)

    @pytest.mark.parametrize("seed", range(12))
    def test_factor_equals_per_vector_oracle_bitwise(self, seed):
        # whole factors are reduced row by row; each score must keep the
        # bits of its vector's own 1-d reductions (summary.json does)
        rng = make_rng(seed)
        m, k, n = (int(x) for x in rng.integers(1, [300, 8, 900]))
        w = rng.uniform(size=(m, k)) ** rng.uniform(1, 6)
        h = rng.uniform(size=(k, n)) ** rng.uniform(1, 6)
        w[:, rng.integers(k)] *= seed % 2  # a zero column in half the cases
        h[h < 0.2] = 0.0
        for axis in ("columns", "rows"):
            want, texts = [], []
            for mat, name in ((w, "W"), (h, "H")):
                scores, faults = zip(*map(
                    hoyer_oracle, mat.T if axis == "columns" else mat))
                want.append(float(np.mean(scores)))
                bad = [f for f in faults if f]
                if bad:
                    texts.append("sparseness: %d %s vectors of %s scored "
                                 "as 0" % (len(bad), bad[0], name))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = sparseness(model_of(w, h), axis=axis)
            assert got == tuple(want)
            assert [str(c.message) for c in caught] == texts

    def test_model_aggregation_in_range(self):
        rng = make_rng(4)
        m = model_of(rng.uniform(size=(6, 3)), rng.uniform(size=(3, 7)))
        for axis in ("columns", "rows"):
            sp_w, sp_h = sparseness(m, axis=axis)
            assert 0.0 <= sp_w <= 1.0 and 0.0 <= sp_h <= 1.0

    def test_bad_axis(self):
        with pytest.raises(MetricError):
            sparseness(model_of(np.ones((2, 1)), np.ones((1, 2))), axis="x")


class TestFeatureScores:
    def test_fully_specific_row(self):
        assert feature_scores(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)

    def test_uniform_row(self):
        assert feature_scores(np.array([[0.4, 0.4]]))[0] == pytest.approx(
            0.0, abs=1e-12)

    def test_hand_value(self):
        got = feature_scores(np.array([[3.0, 1.0]]))[0]
        expected = 1.0 + (0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert got == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.18872, abs=5e-6)

    def test_rank_one_rejected(self):
        with pytest.raises(RankError):
            feature_scores(np.ones((3, 1)))

    def test_one_d_input_is_shape_error(self):
        # an IndexError at the parent
        with pytest.raises(ShapeError, match=r"two integers of at least 1 "
                           r"\(one row and column\), not \(3,\)$"):
            feature_scores(np.ones(3))

    def test_zero_row_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scores = feature_scores(np.array([[0.0, 0.0], [1.0, 2.0]]))
        assert scores[0] == 0.0
        assert len(caught) == 1

    def test_scores_in_unit_interval(self):
        rng = make_rng(5)
        scores = feature_scores(rng.uniform(size=(40, 4)))
        assert np.all((scores >= 0) & (scores <= 1))


class TestConnectivity:
    def test_distinct_clusters(self):
        h = np.array([[0.9, 0.1], [0.1, 0.9]])
        np.testing.assert_array_equal(connectivity(h), np.eye(2))

    def test_rank_one_all_ones(self):
        h = np.array([[0.3, 0.7, 0.2]])
        np.testing.assert_array_equal(connectivity(h), np.ones((3, 3)))

    def test_symmetric_unit_diagonal(self):
        rng = make_rng(6)
        c = connectivity(rng.uniform(size=(3, 8)))
        np.testing.assert_array_equal(c, c.T)
        np.testing.assert_array_equal(np.diag(c), np.ones(8))

    def test_invariant_under_global_scaling(self):
        rng = make_rng(7)
        h = rng.uniform(size=(3, 8))
        np.testing.assert_array_equal(connectivity(h), connectivity(4.2 * h))


class TestConsensus:
    def test_identical_runs_crisp(self):
        h = np.array([[0.9, 0.1, 0.8], [0.1, 0.9, 0.2]])
        cons = consensus([h] * 5)
        assert set(np.unique(cons)) <= {0.0, 1.0}
        assert dispersion(cons) == pytest.approx(1.0)
        assert cophenetic(cons) == pytest.approx(1.0)

    def test_single_cluster_consensus(self):
        cons = consensus([np.array([[1.0, 1.0, 1.0]])])
        np.testing.assert_array_equal(cons, np.ones((3, 3)))
        assert cophenetic(cons) == 1.0

    def test_halfway_entries_contribute_zero_dispersion(self):
        cons = np.full((4, 4), 0.5)
        np.fill_diagonal(cons, 1.0)
        assert dispersion(cons) == pytest.approx(4.0 / 16.0)

    def test_one_pair_disagreement_averages_to_half(self):
        h1 = np.array([[0.9, 0.8, 0.1], [0.1, 0.2, 0.9]])  # {0,1}, {2}
        h2 = np.array([[0.9, 0.1, 0.1], [0.1, 0.9, 0.9]])  # {0}, {1,2}
        cons = consensus([h1, h2])
        assert cons[0, 1] == 0.5 and cons[1, 2] == 0.5

    def test_cophenetic_needs_three_samples(self):
        with pytest.raises(DegenerateError):
            cophenetic(np.eye(2))

    def test_non_square_cophenetic_is_shape_error(self):
        # numpy's ValueError at the parent
        with pytest.raises(ShapeError, match="^cophenetic needs a square "
                           r"consensus matrix, not \(3, 4\)$"):
            cophenetic(np.ones((3, 4)))

    @pytest.mark.parametrize("cols", [4, 1], ids=["broadcast-error",
                                                  "broadcast-silently"])
    def test_unequal_column_counts_are_shape_error(self, cols):
        # numpy's broadcast ValueError at the parent; one column broadcast
        # into a wrong consensus without an error
        with pytest.raises(ShapeError, match="^consensus needs H factors of "
                           "one column count$"):
            consensus([np.ones((2, 3)), np.ones((2, cols))])

    def test_one_d_factor_is_shape_error(self):
        # an IndexError at the parent
        with pytest.raises(ShapeError, match=r"two integers of at least 1 "
                           r"\(one row and column\), not \(3,\)$"):
            consensus([np.ones(3)])

    def test_empty_list_rejected(self):
        with pytest.raises(DegenerateError):
            consensus([])

    def test_mean_of_connectivity(self):
        hs = [make_rng(60 + i).uniform(size=(3, 9)) for i in range(7)]
        want = np.mean([connectivity(h) for h in hs], axis=0)
        np.testing.assert_array_equal(consensus(hs), want)


class TestCopheneticAgainstScipy:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scipy_average_linkage(self, seed):
        scipy_hier = pytest.importorskip("scipy.cluster.hierarchy")
        squareform = pytest.importorskip("scipy.spatial.distance").squareform
        rng = make_rng(seed)
        n = int(rng.integers(4, 12))
        # symmetric matrix with unit diagonal and continuous (tie-free)
        # off-diagonal entries
        raw = rng.uniform(0.0, 1.0, size=(n, n))
        cons = (raw + raw.T) / 2.0
        np.fill_diagonal(cons, 1.0)
        condensed = squareform(1.0 - cons, checks=False)
        z = scipy_hier.linkage(condensed, method="average")
        expected, _ = scipy_hier.cophenet(z, condensed)
        assert cophenetic(cons) == pytest.approx(float(expected), rel=1e-10)


def reference_average_linkage_cophenetic(dist):
    """Frozen dict-of-pairs average linkage, the oracle for the vectorized
    version: ties go to the lexicographically smallest pair of cluster
    ids, merged clusters are numbered n, n+1, ... in creation order."""
    n = dist.shape[0]
    coph = np.zeros((n, n))
    members = {i: [i] for i in range(n)}
    d = {}
    ids = list(range(n))
    for a in range(n):
        for b in range(a + 1, n):
            d[(a, b)] = float(dist[a, b])
    next_id = n
    while len(ids) > 1:
        best = None
        best_pair = None
        for ai in range(len(ids)):
            for bi in range(ai + 1, len(ids)):
                a, b = ids[ai], ids[bi]
                val = d[(a, b) if a < b else (b, a)]
                if best is None or val < best:
                    best = val
                    best_pair = (a, b)
        a, b = best_pair
        ma, mb = members.pop(a), members.pop(b)
        for i in ma:
            for j in mb:
                coph[i, j] = coph[j, i] = best
        merged = ma + mb
        ids.remove(a)
        ids.remove(b)
        for c in ids:
            da = d.pop((a, c) if a < c else (c, a))
            db = d.pop((b, c) if b < c else (c, b))
            d[(c, next_id)] = (len(ma) * da + len(mb) * db) / len(merged)
        d.pop((a, b) if a < b else (b, a))
        members[next_id] = merged
        ids.append(next_id)
        next_id += 1
    return coph


class TestLinkageAgainstReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_tie_heavy_consensus(self, seed):
        rng = make_rng(100 + seed)
        n = int(rng.integers(3, 61))
        hs = []
        for _ in range(int(rng.integers(1, 7))):
            k = int(rng.integers(2, 5))
            hs.append(np.eye(k)[:, rng.integers(0, k, size=n)])
        dist = 1.0 - consensus(hs)
        assert np.array_equal(_average_linkage_cophenetic(dist),
                              reference_average_linkage_cophenetic(dist))

    def test_all_equal_distances(self):
        dist = np.full((7, 7), 0.5)
        np.fill_diagonal(dist, 0.0)
        assert np.array_equal(_average_linkage_cophenetic(dist),
                              reference_average_linkage_cophenetic(dist))

    def test_crisp_block_consensus(self):
        labels = np.array([2, 0, 1, 0, 2, 2, 1, 0, 1])
        dist = 1.0 - connectivity(np.eye(3)[:, labels])
        got = _average_linkage_cophenetic(dist)
        assert np.array_equal(got, reference_average_linkage_cophenetic(dist))
        assert np.array_equal(got, dist)


class TestFitSummary:
    def test_summary_fields_consistent(self):
        rng = make_rng(9)
        v = random_nonneg(rng, 6, 5)
        m = model_of(rng.uniform(size=(6, 2)), rng.uniform(size=(2, 5)))
        s = fit_summary(v, m)
        assert s.evar == 1.0 - s.rss / frobenius_sq(v)
        assert s.dist_euclidean == pytest.approx(math.sqrt(s.rss), rel=1e-12)
        assert s.dist_kl >= 0.0
        assert 0.0 <= s.sparseness_w <= 1.0
        assert 0.0 <= s.sparseness_h <= 1.0

    def test_one_residual_per_summary(self, monkeypatch):
        import nmfkit.quality as quality_mod
        rng = make_rng(10)
        v = random_nonneg(rng, 7, 5)
        m = model_of(rng.uniform(size=(7, 2)), rng.uniform(size=(2, 5)))
        calls, objective = [], quality_mod.objective

        def counted(*args):
            calls.append(args[3])
            return objective(*args)

        monkeypatch.setattr(quality_mod, "objective", counted)
        s = fit_summary(v, m)
        assert calls == ["euclidean"]
        monkeypatch.undo()
        assert s.rss == rss(v, m)
        assert s.evar == evar(v, m)
        with pytest.raises(DegenerateError):
            fit_summary(np.zeros((7, 5)), m)

    def test_one_basis_per_nsnmf_summary(self, monkeypatch):
        import nmfkit.factor as factor_mod
        import nmfkit.quality as quality_mod
        rng = make_rng(14)
        v = random_nonneg(rng, 7, 5)
        model = FactorModel(rng.uniform(size=(7, 3)), rng.uniform(size=(3, 5)),
                            "nsnmf", 0.4, 1, 0.0)
        want = rss(v, model), distance(v, model, "kl")
        calls, basis_of = [], factor_mod.basis_of

        def counted(*args):
            calls.append(args)
            return basis_of(*args)

        for mod in (factor_mod, quality_mod):
            monkeypatch.setattr(mod, "basis_of", counted)
        s = fit_summary(v, model)
        assert len(calls) == 1  # 2 at the parent: fit_summary's and rss's
        assert (s.rss, s.dist_kl) == want

    def test_one_product_per_csr_summary(self, monkeypatch):
        import nmfkit.matcore as matcore_mod
        import nmfkit.quality as quality_mod
        rng = make_rng(13)
        v = to_csr(sparsify(rng, 40, 30, density=0.2))
        model = model_of(rng.uniform(size=(40, 3)), rng.uniform(size=(3, 30)))
        want = rss(v, model), distance(v, model, "kl")
        calls, product_on = [], matcore_mod.product_on

        def counted(*args):
            calls.append(args)
            return product_on(*args)

        for mod in (matcore_mod, quality_mod):
            monkeypatch.setattr(mod, "product_on", counted)
        s = fit_summary(v, model)
        assert len(calls) == 1
        assert (s.rss, s.dist_kl) == want

    def test_memory_error_is_typed(self, monkeypatch):
        import nmfkit.quality as quality_mod
        rng = make_rng(11)
        v = random_nonneg(rng, 7, 5)
        m = model_of(rng.uniform(size=(7, 2)), rng.uniform(size=(2, 5)))

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(quality_mod, "kl_div", exhausted)
        with pytest.raises(OutOfMemoryError, match="rank-2 fit of a 7x5 "
                                                   "matrix") as info:
            fit_summary(v, m)
        assert info.value.kind == "memory"

    def test_csr_fit_forms_no_reconstruction(self, monkeypatch):
        import nmfkit.factor as factor_mod
        rng = make_rng(12)
        m, n = 600, 500
        dense = sparsify(rng, m, n, density=0.02)
        w, h = rng.uniform(size=(m, 5)), rng.uniform(size=(5, n))
        w[0] = 0.0  # a zero row of W H, where the dense form clamps
        model = model_of(w, h)
        want = fit_summary(dense, model).dist_kl
        calls, reconstruct = [], factor_mod.reconstruct

        def counted(*args):
            calls.append(args)
            return reconstruct(*args)

        monkeypatch.setattr(factor_mod, "reconstruct", counted)
        r, c = np.nonzero(dense)
        v = DataMatrix.from_coo(r, c, dense[r, c], (m, n))
        tracemalloc.start()
        try:
            got = fit_summary(v, model).dist_kl
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no m x n array: neither a dense V nor W H, for either term
        assert peak < 0.5 * 8 * m * n
        assert v._dense_data is None
        assert calls == []
        # at most EPS below per zero of V, and rounding of the value's sums
        assert abs(got - want) <= EPS * (m * n - v.nnz) + 1e-14 * abs(want)
