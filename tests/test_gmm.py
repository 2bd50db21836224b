"""Mixture models: LBG initialization, EM training, log-density evaluation."""

import re
import warnings

import numpy as np
import pytest

from sidkit import gmm
from sidkit.config import ModelConfig
from sidkit.errors import InsufficientData
from sidkit.gmm import (
    _EXP_FLOOR,
    _KMEANS_MAX_PASSES,
    COLLAPSE_THRESHOLD,
    LOG_TWO_PI,
    GmmStack,
    ModelBank,
    _canonical_order,
    _cell_means,
    _logsumexp,
    _reseed_empty_cells,
    em_train,
    gmm_log_likelihoods,
    lbg_init,
)

from oracles import (
    ARRAYS,
    bank_of,
    component_log_density,
    em_train_one,
    gmm_log_likelihood,
    lbg_init_one,
    mixture,
    model_log_likelihoods,
    row_of,
    variance_floor,
)


def stack_of(*models: GmmStack, sizes) -> GmmStack:
    """An ``em_train`` init stacking the rows of the given stacks."""
    return GmmStack(*(np.concatenate([getattr(m, name) for m in models]) for name in ARRAYS),
                    tuple(sizes))


def lbg_one(x, m, cfg) -> GmmStack:
    """``lbg_init`` on a stack of one speaker."""
    return lbg_init(x, [len(x)], m, cfg)


def em_one(x, init: GmmStack, cfg) -> GmmStack:
    """``em_train`` on a stack of one speaker from the stack of one ``init``."""
    return em_train(x, stack_of(init, sizes=[len(x)]), cfg)


# The training loops in their plain form, before the Lloyd fast paths and
# the one-product EM step: lbg_init must equal the first bit for bit, and
# em_train the second within EM_RTOL.


def _plain_nearest(features, sq_norms, centroids):
    sq = sq_norms[:, None] - 2.0 * features @ centroids.T + np.sum(centroids**2, axis=1)[None, :]
    return np.argmin(sq, axis=1)


def _plain_kmeans(features, sq_norms, centroids, reseeds):
    for _ in range(_KMEANS_MAX_PASSES):
        labels = _plain_nearest(features, sq_norms, centroids)
        counts = np.bincount(labels, minlength=centroids.shape[0])
        centroids = _cell_means(features, labels, counts)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            reseeds.append(empty.size)
            centroids = _reseed_empty_cells(features, centroids, labels, empty)
    return centroids


def plain_lbg_init(features, num_components, cfg, reseeds):
    """(weights, means, variances); appends each empty-cell reseed's size to
    ``reseeds``."""
    features = np.asarray(features, dtype=np.float64)
    features = features[np.lexsort(features.T[::-1])]
    sq_norms = np.sum(features**2, axis=1)
    floor = variance_floor(features, cfg.variance_floor_factor)
    delta = cfg.lbg_split_epsilon * np.sqrt(features.var(axis=0))
    centroids = features.mean(axis=0, keepdims=True)
    while centroids.shape[0] < num_components:
        centroids = np.vstack([centroids + delta, centroids - delta])
        centroids = _plain_kmeans(features, sq_norms, centroids, reseeds)
    labels = _plain_nearest(features, sq_norms, centroids)
    counts = np.bincount(labels, minlength=num_components)
    for _ in range(10):
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            break
        reseeds.append(empty.size)
        centroids = _reseed_empty_cells(features, centroids, labels, empty)
        labels = _plain_nearest(features, sq_norms, centroids)
        counts = np.bincount(labels, minlength=num_components)
    else:
        raise InsufficientData("could not populate every cell")
    means = _cell_means(features, labels, counts)
    scatter = features - means[labels]
    variances = np.maximum(_cell_means(scatter * scatter, labels, counts), floor)
    return counts / counts.sum(), means, variances


def _plain_log_joint(features, weights, means, variances):
    """The (N, M) log joint, shifted by the mean of the component means."""
    shift = means.mean(axis=0)
    centred = means - shift
    precisions = 1.0 / variances
    form = np.hstack([-0.5 * precisions, centred * precisions])
    const = np.log(weights) - 0.5 * (
        means.shape[1] * LOG_TWO_PI
        + np.sum(np.log(variances), axis=1)
        + np.sum(centred * centred * precisions, axis=1)
    )
    y = features - shift
    return np.einsum("nk,mk->nm", np.hstack([y * y, y]), form) + const


def plain_em_train(features, init, cfg):
    """(weights, means, variances, trace), from unshifted moments."""
    features = np.asarray(features, dtype=np.float64)
    num = features.shape[0]
    features = features[np.lexsort(features.T[::-1])]
    squares = features**2
    floor = variance_floor(features, cfg.variance_floor_factor)
    global_var = np.maximum(features.var(axis=0), floor)
    weights, means, variances = init.weights[0], init.means[0], init.variances[0]
    trace = []
    for iteration in range(cfg.em_iterations + 1):
        joint = _plain_log_joint(features, weights, means, variances)
        per_vector = _logsumexp(joint)
        trace.append(float(per_vector.sum()))
        if iteration == cfg.em_iterations:
            break
        resp = np.exp(np.maximum(joint - per_vector[:, None], _EXP_FLOOR))
        totals = resp.sum(axis=0)
        clamped = np.maximum(totals, COLLAPSE_THRESHOLD)[:, None]
        weights = totals / num
        means = (resp.T @ features) / clamped
        variances = np.maximum((resp.T @ squares) / clamped - means**2, floor)
        collapsed = np.flatnonzero(totals < COLLAPSE_THRESHOLD)
        if collapsed.size:
            worst = np.argsort(per_vector, kind="stable")
            for slot, j in enumerate(collapsed):
                means[j] = features[worst[slot % num]]
                variances[j] = global_var
                weights[j] = 1.0 / num
            weights = weights / weights.sum()
    return weights, means, variances, trace


def two_clouds(rng, n_per=500, dim=3, separation=10.0, std=1.0):
    """Two labeled Gaussian clouds a fixed number of stds apart."""
    a = rng.standard_normal((n_per, dim)) * std
    b = rng.standard_normal((n_per, dim)) * std + separation * std
    return np.vstack([a, b]), a.mean(axis=0), b.mean(axis=0)


class TestLbgInit:
    def test_single_component_is_global_stats(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((400, 5)) * 2.0 + 1.0
        model = lbg_one(x, 1, ModelConfig())
        np.testing.assert_allclose(model.means[0, 0], x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(model.variances[0, 0], x.var(axis=0), atol=1e-12)
        assert model.weights[0, 0] == 1.0

    def test_two_separated_clouds_found(self):
        """Split + refine lands centroids on the true cloud means.

        Truth comes from the generator labels, not from the quantizer.
        """
        rng = np.random.default_rng(41)
        x, mean_a, mean_b = two_clouds(rng)
        model = lbg_one(x, 2, ModelConfig())
        got = sorted(model.means[0].tolist())
        want = sorted([mean_a.tolist(), mean_b.tolist()])
        for g, w in zip(got, want):
            assert np.linalg.norm(np.array(g) - np.array(w)) < 0.1

    def test_weights_balanced_on_balanced_data(self):
        rng = np.random.default_rng(42)
        x, _, _ = two_clouds(rng)
        for m in (2, 4, 8):
            model = lbg_one(x, m, ModelConfig())
            assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(model.weights >= 1.0 / (4 * m))

    def test_power_of_two_required(self):
        rng = np.random.default_rng(43)
        for m in (3, 0):
            with pytest.raises(ValueError, match=f"got {m}$"):
                lbg_one(rng.standard_normal((100, 2)), m, ModelConfig())

    def test_insufficient_data(self):
        rng = np.random.default_rng(44)
        with pytest.raises(InsufficientData):
            lbg_one(rng.standard_normal((3, 2)), 4, ModelConfig())

    def test_deterministic(self):
        rng = np.random.default_rng(45)
        x = rng.standard_normal((300, 4))
        cfg = ModelConfig()
        a = lbg_one(x, 4, cfg)
        b = lbg_one(x, 4, cfg)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_variances_floored(self):
        rng = np.random.default_rng(46)
        x = rng.standard_normal((200, 3))
        cfg = ModelConfig()
        model = lbg_one(x, 4, cfg)
        floor = variance_floor(x, cfg.variance_floor_factor)
        assert np.all(model.variances >= floor)

    @pytest.mark.parametrize("m", [2, 8, 16])
    def test_lloyd_passes_are_capped_per_split(self, m, monkeypatch):
        """At most 5 distance passes per split (the cap CHANGES.md's sweep
        chose), plus one for the final labels, on data whose Lloyd passes
        run on far longer uncapped."""
        calls = []

        def counting(*args):
            calls.append(1)
            return nearest(*args)

        nearest = gmm._nearest_centroid
        monkeypatch.setattr(gmm, "_nearest_centroid", counting)
        x = np.random.default_rng(47).standard_normal((1600, 19))
        lbg_one(x, m, ModelConfig())
        assert len(calls) <= int(np.log2(m)) * 5 + 1

    def test_cell_stats_equal_loop_form(self):
        """The bincount cell means and variances equal, bit for bit, the
        per-cell ``mean``/``var`` loop they replace (2-D cells; numpy sums a
        1-D column pairwise instead).  An empty cell gets zeros."""
        rng = np.random.default_rng(59)
        for _ in range(200):
            n, d, m = int(rng.integers(1, 2000)), int(rng.integers(2, 25)), int(rng.integers(1, 17))
            x = rng.standard_normal((n, d)) * rng.uniform(0.1, 100) + rng.uniform(-50, 50)
            labels = rng.integers(0, m, n)
            counts = np.bincount(labels, minlength=m)
            means = _cell_means(x, labels, counts)
            scatter = x - means[labels]
            variances = _cell_means(scatter * scatter, labels, counts)
            for j in range(m):
                if counts[j]:
                    np.testing.assert_array_equal(means[j], x[labels == j].mean(axis=0))
                    np.testing.assert_array_equal(variances[j], x[labels == j].var(axis=0))
                else:
                    np.testing.assert_array_equal(means[j], np.zeros(d))


class TestComponentLogDensity:
    @staticmethod
    def _model(mean, var):
        mean = np.atleast_2d(np.asarray(mean, dtype=float))
        var = np.atleast_2d(np.asarray(var, dtype=float))
        return mixture(weights=np.array([1.0]), means=mean, variances=var)

    def test_standard_normal_peak_1d(self):
        model = self._model([0.0], [1.0])
        value = component_log_density(np.array([0.0]), 0, model)
        assert value == pytest.approx(-0.918939, abs=1e-6)

    def test_standard_normal_peak_2d(self):
        model = self._model([0.0, 0.0], [1.0, 1.0])
        value = component_log_density(np.array([0.0, 0.0]), 0, model)
        assert value == pytest.approx(-1.837877, abs=1e-6)

    def test_matches_direct_formula(self):
        """Log-domain evaluation equals log of the explicit product of
        one-dimensional normal densities."""
        rng = np.random.default_rng(47)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            mean = rng.uniform(-2, 2, d)
            var = rng.uniform(0.5, 3.0, d)
            x = rng.uniform(-4, 4, d)
            model = self._model(mean, var)
            direct = np.prod(
                np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)
            )
            got = component_log_density(x, 0, model)
            assert got == pytest.approx(np.log(direct), abs=1e-10)


class TestGmmLogLikelihood:
    def test_single_component_equals_density(self):
        rng = np.random.default_rng(48)
        model = mixture(weights=np.array([1.0]), means=rng.uniform(-1, 1, (1, 4)),
                        variances=rng.uniform(0.5, 2.0, (1, 4)))
        x = rng.uniform(-2, 2, 4)
        assert gmm_log_likelihood(x, model) == pytest.approx(
            component_log_density(x, 0, model), abs=1e-12
        )

    def test_identical_components_collapse(self):
        """Two copies of the same Gaussian at weights 0.5/0.5 score like one."""
        mean = np.array([[0.3, -0.7]])
        var = np.array([[1.2, 0.8]])
        single = mixture(weights=np.array([1.0]), means=mean, variances=var)
        double = mixture(weights=np.array([0.5, 0.5]),
                         means=np.vstack([mean, mean]),
                         variances=np.vstack([var, var]))
        x = np.array([1.0, 1.0])
        assert gmm_log_likelihood(x, double) == pytest.approx(
            gmm_log_likelihood(x, single), abs=1e-12
        )

    def test_matches_linear_domain(self):
        """Stable evaluation equals naive linear-domain sums when those
        do not underflow."""
        rng = np.random.default_rng(49)
        checked = 0
        for _ in range(100):
            m, d = 8, 3
            means = rng.uniform(-3, 3, (m, d))
            variances = rng.uniform(0.5, 2.0, (m, d))
            weights = rng.uniform(0.5, 1.5, m)
            weights /= weights.sum()
            model = mixture(weights=weights, means=means, variances=variances)
            for x in rng.uniform(-4, 4, (100, d)):
                linear = 0.0
                for i in range(m):
                    dens = np.prod(
                        np.exp(-0.5 * (x - means[i]) ** 2 / variances[i])
                        / np.sqrt(2 * np.pi * variances[i])
                    )
                    linear += weights[i] * dens
                if linear > 1e-290:
                    assert gmm_log_likelihood(x, model) == pytest.approx(
                        np.log(linear), abs=1e-9
                    )
                    checked += 1
        assert checked > 1000

    def test_batch_equals_per_vector(self):
        """A batch scores within a few ulps of its rows one at a time: the
        BLAS product may accumulate one row differently from many."""
        rng = np.random.default_rng(50)
        model = mixture(weights=np.array([0.4, 0.6]),
                        means=rng.uniform(-1, 1, (2, 5)),
                        variances=rng.uniform(0.5, 2.0, (2, 5)))
        xs = rng.uniform(-2, 2, (50, 5))
        batch = model_log_likelihoods(xs, model)
        singles = np.array([gmm_log_likelihood(x, model) for x in xs])
        np.testing.assert_allclose(batch, singles, rtol=1e-14, atol=0)


class TestLogDensityKernel:
    """The precomputed quadratic form against the per-component oracle."""

    @staticmethod
    def _oracle(xs, model):
        with np.errstate(divide="ignore"):
            log_weights = np.log(model.weights[0])
        joint = np.array([
            [log_weights[i] + component_log_density(x, i, model)
             for i in range(model.num_components)]
            for x in xs
        ])
        return np.logaddexp.reduce(joint, axis=1)

    @staticmethod
    def _random_model(rng, m, d, centre=0.0, spread=3.0, var_scale=1.0):
        weights = rng.uniform(0.2, 1.0, m)
        return mixture(weights=weights / weights.sum(),
                       means=centre + rng.uniform(-spread, spread, (m, d)),
                       variances=var_scale * rng.uniform(0.1, 3.0, (m, d)))

    def test_matches_oracle_across_orders_and_widths(self):
        rng = np.random.default_rng(60)
        for m in (1, 2, 8, 16):
            for d in (1, 6, 19):
                model = self._random_model(rng, m, d)
                xs = rng.uniform(-5.0, 5.0, (40, d))
                np.testing.assert_allclose(
                    model_log_likelihoods(xs, model), self._oracle(xs, model), rtol=0, atol=1e-9
                )

    def test_far_off_means_keep_their_digits(self):
        """Means at 1e4 +/- 1e-2 with variances near 1e-4: the shift by the
        mean of the means keeps the expanded square from cancelling."""
        rng = np.random.default_rng(61)
        for m in (2, 8):
            model = self._random_model(rng, m, 6, centre=1e4, spread=1e-2, var_scale=1e-4)
            xs = 1e4 + rng.uniform(-1e-2, 1e-2, (40, 6))
            np.testing.assert_allclose(
                model_log_likelihoods(xs, model), self._oracle(xs, model), rtol=0, atol=1e-9
            )

    def test_constant_dimension_at_variance_floor(self):
        """A trained model of data with one constant dimension holds that
        dimension at the 1e-12 floor and still matches the oracle, on and
        off the constant."""
        rng = np.random.default_rng(62)
        x = rng.standard_normal((400, 4))
        x[:, 2] = 0.37
        cfg = ModelConfig()
        model = em_one(x, lbg_one(x, 4, cfg), cfg)
        assert np.all(model.variances[0, :, 2] == 1e-12)
        xs = rng.standard_normal((40, 4))
        xs[:, 2] = 0.37
        xs[::2, 2] += rng.uniform(-1e-6, 1e-6, 20)
        np.testing.assert_allclose(
            model_log_likelihoods(xs, model), self._oracle(xs, model), rtol=0, atol=1e-9
        )

    def test_zero_weight_component_is_inert(self):
        """A component of weight 0 raises no warning and changes no score.
        The dead mean sits at the live means' midpoint, so the shift is the same."""
        rng = np.random.default_rng(63)
        means = np.array([[-1.0, 2.0, 0.5], [1.0, 0.0, -0.5]])
        variances = rng.uniform(0.5, 2.0, (2, 3))
        live = mixture(weights=np.array([0.25, 0.75]), means=means, variances=variances)
        with_dead = mixture(weights=np.array([0.25, 0.0, 0.75]),
                            means=np.array([means[0], [0.0, 1.0, 0.0], means[1]]),
                            variances=np.array([variances[0], [1.0, 1.0, 1.0], variances[1]]))
        xs = rng.uniform(-3.0, 3.0, (30, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = model_log_likelihoods(xs, with_dead)
            single = gmm_log_likelihood(xs[0], with_dead)
        np.testing.assert_allclose(got, model_log_likelihoods(xs, live), rtol=1e-14, atol=0)
        np.testing.assert_allclose(single, got[0], rtol=1e-14, atol=0)

    @staticmethod
    def _unclamped_logsumexp(values, axis=-1):
        """The log-sum-exp formula with a plain ``exp`` of every term."""
        peak = values.max(axis=axis, keepdims=True)
        peak[~np.isfinite(peak)] = 0.0
        with np.errstate(divide="ignore"):
            total = np.exp(values - peak).sum(axis=axis)
            return np.log(total) + np.squeeze(peak, axis=axis)

    def test_logsumexp_equals_the_unclamped_formula(self):
        """Raising exp arguments to the cut changes no bit of the result:
        terms down to -1e4 below the peak, -inf terms, all -inf slices (also
        of a 1-D input) and NaN, over the last and the middle axis."""
        rng = np.random.default_rng(73)
        for _ in range(300):
            ndim = int(rng.integers(1, 4))
            shape = tuple(int(n) for n in rng.integers(1, 40, ndim))
            far = rng.random(shape) < 0.5
            values = rng.uniform(-50.0, 50.0, shape) - far * rng.uniform(0.0, 1e4, shape)
            values[rng.random(shape) < 0.1] = -np.inf
            if rng.random() < 0.3:
                values[(0,) * (ndim - 1)] = -np.inf
            if ndim == 3 and rng.random() < 0.3:
                values[0, :, 0] = -np.inf
            if rng.random() < 0.2:
                values.flat[int(rng.integers(values.size))] = np.nan
            for axis in (-1, 1) if ndim == 3 else (-1,):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = _logsumexp(values, axis=axis)
                np.testing.assert_array_equal(got, self._unclamped_logsumexp(values, axis))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _logsumexp(np.full(5, -np.inf)) == -np.inf
            assert np.isnan(_logsumexp(np.array([0.0, np.nan, -1e4])))
            assert _logsumexp(np.array([0.0, -1e4])) == 0.0

    def test_exp_never_sees_an_argument_below_the_cut(self, monkeypatch):
        """Scoring a widely spread bank and training with a far-off
        component both reach the cut, and never pass ``exp`` anything below it."""
        rng = np.random.default_rng(74)
        seen = []
        real_exp = np.exp

        def spy(x, *args, **kwargs):
            seen.append(float(np.min(x)))
            return real_exp(x, *args, **kwargs)

        models = {f"spk{i:02d}": self._random_model(rng, 8, 19, spread=30.0, var_scale=0.1)
                  for i in range(16)}
        xs = rng.uniform(-30.0, 30.0, (50, 19))
        x = rng.standard_normal((200, 2))
        init = mixture(weights=np.array([0.5, 0.5]),
                       means=np.array([[0.0, 0.0], [1e6, 1e6]]),
                       variances=np.array([[1.0, 1.0], [1e-4, 1e-4]]))
        monkeypatch.setattr(np, "exp", spy)
        for run in (lambda: gmm_log_likelihoods(xs, bank_of(models)),
                    lambda: em_one(x, init, ModelConfig(em_iterations=10))):
            seen.clear()
            run()
            assert seen and min(seen) == _EXP_FLOOR

    def test_logsumexp_all_minus_inf_row(self):
        """A row of -inf sums to -inf without a floating-point warning."""
        values = np.array([[-np.inf, -np.inf], [0.0, np.log(3.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp(values)
        assert got[0] == -np.inf
        assert got[1] == pytest.approx(np.log(4.0), abs=1e-15)


class TestModelBank:
    """A stream's stacked models against each model's own oracle."""

    _oracle = staticmethod(TestLogDensityKernel._oracle)
    _random_model = staticmethod(TestLogDensityKernel._random_model)

    def _check_columns(self, xs, models, atol=1e-9):
        bank = bank_of(models)
        got = gmm_log_likelihoods(xs, bank)
        assert got.shape == (xs.shape[0], len(models))
        for column, speaker in zip(got.T, sorted(models)):
            np.testing.assert_allclose(column, self._oracle(xs, models[speaker]),
                                       rtol=0, atol=atol)
        return got

    def test_matches_oracle_across_orders_widths_and_speakers(self):
        rng = np.random.default_rng(64)
        for s in (1, 3, 16):
            for m in (1, 2, 8, 16):
                for d in (1, 6, 19):
                    models = {f"spk{i:02d}": self._random_model(rng, m, d) for i in range(s)}
                    self._check_columns(rng.uniform(-5.0, 5.0, (12, d)), models)

    def test_columns_are_component_major(self):
        """The form is stored transposed, (2D+1, S*M) and contiguous: column
        m*S + s holds [A_m, c_m] of the s-th speaker in id order, and c_m
        is the component's log joint at the shift itself (y = 0)."""
        rng = np.random.default_rng(65)
        models = {name: self._random_model(rng, 4, 3) for name in ("c", "a", "b")}
        bank = bank_of(models)
        assert bank.speakers == ("a", "b", "c")
        assert (bank.num_components, bank.dim) == (12, 3)
        form = bank._form
        assert form.shape == (7, 12) and form.flags.c_contiguous
        for s, speaker in enumerate(bank.speakers):
            model = models[speaker]
            for m in range(4):
                column = form[:, m * 3 + s]
                np.testing.assert_array_equal(column[:3], -0.5 / model.variances[0, m])
                np.testing.assert_allclose(
                    column[6],
                    np.log(model.weights[0, m]) + component_log_density(bank._shift, m, model),
                    rtol=1e-13, atol=0,
                )

    def test_far_off_means_keep_their_digits(self):
        rng = np.random.default_rng(66)
        models = {
            f"spk{i:02d}": self._random_model(rng, 8, 6, centre=1e4, spread=1e-2,
                                              var_scale=1e-4)
            for i in range(16)
        }
        self._check_columns(1e4 + rng.uniform(-1e-2, 1e-2, (40, 6)), models)

    def test_constant_dimension_at_variance_floor(self):
        """Speakers holding one dimension at the same constant, at the 1e-12 floor."""
        rng = np.random.default_rng(67)
        cfg = ModelConfig()
        models = {}
        for i in range(16):
            x = rng.standard_normal((200, 4))
            x[:, 2] = 0.37
            models[f"spk{i:02d}"] = em_one(x, lbg_one(x, 4, cfg), cfg)
        assert all(np.all(m.variances[0, :, 2] == 1e-12) for m in models.values())
        xs = rng.standard_normal((40, 4))
        xs[:, 2] = 0.37
        xs[::2, 2] += rng.uniform(-1e-6, 1e-6, 20)
        self._check_columns(xs, models)

    def test_constants_at_different_values_hold_the_stated_bound(self):
        """Speakers holding a floored dimension at different constants put
        their own shifts far from the bank's.  The error then exceeds the
        1e-9 of the oracle tests, but stays within eps * (|score| +
        sum_d delta_d**2 / var_d), delta being the gap between the shifts."""
        rng = np.random.default_rng(68)
        cfg = ModelConfig()
        constants = (0.37, 0.38, 0.41)
        models = {}
        for i, constant in enumerate(constants):
            x = rng.standard_normal((400, 4))
            x[:, 2] = constant
            models[f"spk{i}"] = em_one(x, lbg_one(x, 4, cfg), cfg)
        bank = bank_of(models)
        xs = rng.standard_normal((60, 4))
        xs[:, 2] = rng.choice(constants, 60)
        xs[::2, 2] += rng.uniform(-1e-6, 1e-6, 30)
        got = gmm_log_likelihoods(xs, bank)
        bank_shift = bank._shift
        worst = 0.0
        for column, speaker in zip(got.T, bank.speakers):
            model = models[speaker]
            own = model_log_likelihoods(xs, model)
            delta = model.means[0].mean(axis=0) - bank_shift
            bound = np.finfo(float).eps * (
                np.abs(own) + np.sum(delta**2 / model.variances[0].min(axis=0))
            )
            error = np.abs(column - own)
            assert np.all(error <= 4.0 * bound)
            worst = max(worst, float(error.max()))
        assert worst > 1e-9

    def test_zero_weight_component_is_inert(self):
        rng = np.random.default_rng(69)
        means = np.array([[-1.0, 2.0, 0.5], [1.0, 0.0, -0.5]])
        variances = rng.uniform(0.5, 2.0, (2, 3))
        live = mixture(weights=np.array([0.25, 0.75]), means=means, variances=variances)
        with_dead = mixture(weights=np.array([0.25, 0.0, 0.75]),
                            means=np.array([means[0], [0.0, 1.0, 0.0], means[1]]),
                            variances=np.array([variances[0], [1.0, 1.0, 1.0], variances[1]]))
        models = {"a": with_dead, "b": self._random_model(rng, 3, 3)}
        xs = rng.uniform(-3.0, 3.0, (30, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self._check_columns(xs, models)
        np.testing.assert_allclose(got[:, 0], model_log_likelihoods(xs, live), rtol=0, atol=1e-12)

    def test_batch_equals_per_vector(self):
        """A batch scores within a few ulps of its rows one at a time."""
        rng = np.random.default_rng(70)
        bank = bank_of({f"spk{i}": self._random_model(rng, 8, 19) for i in range(5)})
        xs = rng.uniform(-5.0, 5.0, (33, 19))
        rows = np.vstack([gmm_log_likelihoods(x[None, :], bank) for x in xs])
        np.testing.assert_allclose(gmm_log_likelihoods(xs, bank), rows, rtol=1e-14, atol=0)

    def test_model_scores_as_its_bank_of_one(self):
        """A lone model is scored bit for bit as a one-speaker bank."""
        rng = np.random.default_rng(96)
        model = self._random_model(rng, 8, 19)
        xs = rng.uniform(-5.0, 5.0, (33, 19))
        got = model_log_likelihoods(xs, model)
        assert got.shape == (33,)
        np.testing.assert_array_equal(got, gmm_log_likelihoods(xs, bank_of({"a": model}))[:, 0])

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="no speakers to score against"):
            ModelBank((), np.ones((0, 1)), np.zeros((0, 1, 2)), np.ones((0, 1, 2)))

    @pytest.mark.parametrize("speakers", [("b", "a"), ("a", "a")], ids=["unsorted", "repeated"])
    def test_speakers_must_strictly_increase(self, speakers):
        """Columns are read in speaker order, so an order the caller did not
        sort would name every column wrongly."""
        model = self._random_model(np.random.default_rng(71), 2, 3)
        arrays = [np.concatenate([getattr(model, name)] * 2) for name in ARRAYS]
        with pytest.raises(ValueError, match=re.escape(f"strictly increasing, got {speakers}")):
            ModelBank(speakers, *arrays)

    def test_one_speaker_per_model(self):
        model = self._random_model(np.random.default_rng(73), 2, 3)
        arrays = [np.concatenate([getattr(model, name)] * 2) for name in ARRAYS]
        with pytest.raises(ValueError, match="^" + re.escape(
            "weights (S, M), means and variances (S, M, D) need S = 3, one row per speaker; "
            "got (2, 2), (2, 2, 3) and (2, 2, 3)"
        ) + "$"):
            ModelBank(("a", "b", "c"), *arrays)

    @pytest.mark.parametrize(
        "weights, means, variances, shapes",
        [
            ((1, 2), (2, 3), (1, 2, 3), "(1, 2), (2, 3) and (1, 2, 3)"),
            ((1, 1), (1, 2, 3), (1, 2, 3), "(1, 1), (1, 2, 3) and (1, 2, 3)"),
            ((1, 2), (1, 2, 3), (1, 2, 4), "(1, 2), (1, 2, 3) and (1, 2, 4)"),
        ],
        ids=["2-D-means", "weights-of-other-M", "variances-of-other-shape"],
    )
    def test_arrays_must_have_the_stacked_shapes(self, weights, means, variances, shapes):
        """Mis-shaped arrays would score without error and answer wrongly (a
        (1, 1) weights beside (1, 2, 3) means made a 1-component bank whose
        scores had twice the vectors' rows), or fail deep in numpy."""
        with pytest.raises(ValueError, match="^" + re.escape(
            "weights (S, M), means and variances (S, M, D) need S = 1, one row per speaker; "
            f"got {shapes}"
        ) + "$"):
            ModelBank(["a"], np.full(weights, 0.5), np.zeros(means), np.ones(variances))

    def test_bank_of_a_stack_scores_as_its_models(self):
        """A trained stack's own (S, M) and (S, M, D) arrays make the bank
        that stacking its models one by one makes, bit for bit."""
        rng = np.random.default_rng(75)
        cfg = ModelConfig()
        x = rng.standard_normal((600, 5))
        stack = em_train(x, lbg_init(x, [200, 250, 150], 4, cfg), cfg)
        speakers = ("a", "b", "c")
        direct = ModelBank(speakers, stack.weights, stack.means, stack.variances)
        stacked = bank_of({speaker: row_of(stack, i) for i, speaker in enumerate(speakers)})
        np.testing.assert_array_equal(direct._form, stacked._form)
        np.testing.assert_array_equal(direct._shift, stacked._shift)
        xs = rng.standard_normal((40, 5))
        np.testing.assert_array_equal(gmm_log_likelihoods(xs, direct),
                                      gmm_log_likelihoods(xs, stacked))

    def test_logsumexp_over_the_middle_axis(self):
        """The axis argument reduces like the last-axis form of each slice."""
        rng = np.random.default_rng(72)
        values = rng.uniform(-50.0, 0.0, (6, 8, 5))
        values[0, :, 1] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _logsumexp(values, axis=1)
        for s in range(5):
            np.testing.assert_allclose(got[:, s], _logsumexp(values[:, :, s]), rtol=1e-15)


class TestEmTrain:
    def test_single_component_one_pass_is_sample_stats(self):
        """One EM pass at M=1 lands on the sample mean and variance
        regardless of the starting point (closed-form maximum likelihood)."""
        rng = np.random.default_rng(51)
        x = rng.standard_normal((500, 3)) * 1.7 + 0.4
        bad_init = mixture(weights=np.array([1.0]),
                           means=np.full((1, 3), 9.0),
                           variances=np.full((1, 3), 4.0))
        cfg = ModelConfig(em_iterations=1)
        model = em_one(x, bad_init, cfg)
        np.testing.assert_allclose(model.means[0, 0], x.mean(axis=0), atol=1e-9)
        np.testing.assert_allclose(model.variances[0, 0], x.var(axis=0), atol=1e-9)
        assert model.weights[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_log_likelihood_trace_non_decreasing(self):
        rng = np.random.default_rng(52)
        x = rng.standard_normal((400, 4))
        cfg = ModelConfig(em_iterations=10)
        model = em_one(x, lbg_one(x, 4, cfg), cfg)
        trace = np.asarray(model.em_log_likelihoods)
        assert trace.size == 11
        assert np.all(np.diff(trace) >= -1e-8)

    def test_known_two_component_mixture_recovered(self):
        """Means of a +/-3 two-component 1-D mixture recovered within 0.15."""
        rng = np.random.default_rng(53)
        n = 5000
        labels = rng.random(n) < 0.5
        x = np.where(labels, -3.0, 3.0) + rng.standard_normal(n)
        x = x[:, None]
        cfg = ModelConfig(em_iterations=10)
        model = em_one(x, lbg_one(x, 2, cfg), cfg)
        got = sorted(model.means.ravel().tolist())
        assert got[0] == pytest.approx(-3.0, abs=0.15)
        assert got[1] == pytest.approx(3.0, abs=0.15)
        assert model.weights[0, 0] == pytest.approx(0.5, abs=0.05)

    def test_constraints_after_training(self):
        """Weights sum to one and variances respect the floor for random
        datasets and all tested model orders."""
        rng = np.random.default_rng(54)
        for m in (2, 4, 8):
            x = rng.standard_normal((30 * m, 5))
            cfg = ModelConfig(em_iterations=10)
            model = em_one(x, lbg_one(x, m, cfg), cfg)
            floor = variance_floor(x, cfg.variance_floor_factor)
            assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(model.weights >= 0)
            assert np.all(model.variances >= floor * (1 - 1e-12))

    def test_permutation_invariance(self):
        """Shuffling the training vectors leaves the model bit-identical:
        accumulation happens in a canonical sorted order internally."""
        rng = np.random.default_rng(55)
        x = rng.standard_normal((300, 3))
        cfg = ModelConfig(em_iterations=5)
        model_a = em_one(x, lbg_one(x, 2, cfg), cfg)
        perm = rng.permutation(len(x))
        y = x[perm]
        model_b = em_one(y, lbg_one(y, 2, cfg), cfg)
        np.testing.assert_array_equal(model_a.means, model_b.means)
        np.testing.assert_array_equal(model_a.variances, model_b.variances)
        np.testing.assert_array_equal(model_a.weights, model_b.weights)

    def test_collapsed_component_recovers(self):
        """A component started far outside the data is re-seeded onto a
        data point instead of killing the run."""
        rng = np.random.default_rng(57)
        x = rng.standard_normal((200, 2))
        init = mixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [1e6, 1e6]]),
            variances=np.array([[1.0, 1.0], [1e-4, 1e-4]]),
        )
        cfg = ModelConfig(em_iterations=10)
        model = em_one(x, init, cfg)
        assert np.all(np.abs(model.means) < 10.0)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_collapse_reseed_raises_no_warning(self):
        """The dead component's M-step stays finite, so no floating-point
        warning escapes before it is re-seeded."""
        rng = np.random.default_rng(57)
        x = rng.standard_normal((200, 2))
        init = mixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [1e6, 1e6]]),
            variances=np.array([[1.0, 1.0], [1e-4, 1e-4]]),
        )
        cfg = ModelConfig(em_iterations=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = em_one(x, init, cfg)
        assert np.all(np.isfinite(model.means)) and np.all(np.abs(model.means) < 10.0)

    def test_monotone_across_datasets_and_orders(self):
        """Likelihood never decreases for many random datasets and orders."""
        rng = np.random.default_rng(58)
        for _ in range(10):
            for m in (2, 4):
                x = rng.standard_normal((25 * m, 3)) + rng.uniform(-2, 2, 3)
                cfg = ModelConfig(em_iterations=10)
                model = em_one(x, lbg_one(x, m, cfg), cfg)
                trace = np.asarray(model.em_log_likelihoods)
                assert np.all(np.diff(trace) >= -1e-8)


# Parameters of em_train and plain_em_train differ by rounding only: means
# relative to the data's spread, variances and weights relative to themselves.
EM_RTOL = 1e-9


def assert_em_close(model, weights, means, variances, spread):
    np.testing.assert_allclose(model.weights[0], weights, rtol=EM_RTOL, atol=0)
    assert np.all(np.abs(model.means[0] - means) <= EM_RTOL * spread)
    np.testing.assert_allclose(model.variances[0], variances, rtol=EM_RTOL, atol=0)


def clumped(seed):
    """Duplicated rows with ties in column 0, plus a few outliers; splitting
    these leaves cells empty for k-means to reseed."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((20, 3))
    base[:, 0] = np.round(base[:, 0], 1)
    return np.vstack([base[rng.integers(0, 20, 60)], rng.standard_normal((4, 3)) * 6])


class TestTrainingAgainstPlainLoops:
    """The rewritten LBG and EM loops against their plain forms above."""

    def test_canonical_order_is_the_full_lexsort(self):
        """Bit for bit, with and without ties in column 0 (a -0.0 and 0.0
        pair among them), with duplicated rows and with one row."""
        rng = np.random.default_rng(90)
        cases = [rng.standard_normal((1, 4)), rng.standard_normal((50, 3)), clumped(91)]
        ties = rng.standard_normal((40, 2))
        ties[:, 0] = rng.integers(-3, 3, 40)
        cases.append(ties)
        signed_zero = np.array([[0.0, 2.0], [-0.0, 1.0], [1.0, 0.0], [-1.0, 5.0]])
        cases.append(signed_zero)
        for x in cases:
            want = x[np.lexsort(x.T[::-1])]
            assert _canonical_order(x).tobytes() == want.tobytes()
        assert _canonical_order(signed_zero)[1:3, 1].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
    def test_lbg_init_is_bit_identical(self, m):
        """Clouds, and clumped data whose k-means passes reseed empty cells."""
        rng = np.random.default_rng(92)
        cfg = ModelConfig()
        datasets = [two_clouds(rng, n_per=100, dim=5)[0], rng.standard_normal((300, 19))]
        datasets += [clumped(seed) for seed in range(8)]
        reseeds = []
        for x in datasets:
            model = lbg_one(x, m, cfg)
            weights, means, variances = plain_lbg_init(x, m, cfg, reseeds)
            assert model.weights.tobytes() == weights.tobytes()
            assert model.means.tobytes() == means.tobytes()
            assert model.variances.tobytes() == variances.tobytes()
        if m >= 8:
            assert reseeds

    def test_lbg_init_fails_like_the_plain_loop(self):
        """Fewer distinct vectors than cells: both reseed, then give up."""
        rng = np.random.default_rng(93)
        x = rng.standard_normal((6, 2))[rng.integers(0, 6, 40)]
        reseeds = []
        with pytest.raises(InsufficientData, match="could not populate every cell"):
            plain_lbg_init(x, 8, ModelConfig(), reseeds)
        assert reseeds
        with pytest.raises(InsufficientData, match="could not populate every cell"):
            lbg_one(x, 8, ModelConfig())

    def test_em_train_matches_the_plain_em(self):
        rng = np.random.default_rng(94)
        cfg = ModelConfig()
        for m in (1, 2, 4, 8, 16):
            for d in (1, 6, 19):
                x = rng.standard_normal((40 * m, d)) * rng.uniform(0.1, 3.0, d)
                x += rng.uniform(-3.0, 3.0, d)
                init = lbg_one(x, m, cfg)
                model = em_one(x, init, cfg)
                weights, means, variances, trace = plain_em_train(x, init, cfg)
                assert_em_close(model, weights, means, variances, x.std(axis=0))
                np.testing.assert_allclose(model.em_log_likelihoods, trace, rtol=EM_RTOL)

    def test_collapse_matches_the_plain_em(self):
        """The far component collapses and both loops reseed it alike.  The
        initial log-likelihood is held to a direct per-component sum instead:
        the plain loop shifts by the mean of the means, 5e5 here, and loses
        its digits to cancellation (it is off by 2e-3 nats)."""
        rng = np.random.default_rng(57)
        x = rng.standard_normal((200, 2))
        init = mixture(weights=np.array([0.5, 0.5]),
                       means=np.array([[0.0, 0.0], [1e6, 1e6]]),
                       variances=np.array([[1.0, 1.0], [1e-4, 1e-4]]))
        cfg = ModelConfig(em_iterations=10)
        model = em_one(x, init, cfg)
        weights, means, variances, trace = plain_em_train(x, init, cfg)
        assert np.all(np.abs(means) < 10.0)
        assert_em_close(model, weights, means, variances, x.std(axis=0))
        np.testing.assert_allclose(model.em_log_likelihoods[1:], trace[1:], rtol=EM_RTOL)
        direct = sum(
            np.logaddexp.reduce([np.log(0.5) + component_log_density(v, i, init) for i in (0, 1)])
            for v in x
        )
        assert model.em_log_likelihoods[0] == pytest.approx(direct, rel=1e-14)

    def test_far_off_data_keeps_its_digits(self):
        """Data at 1e4 with unit spread.  em_train takes its moments about
        the data's mean, so it matches the plain loop run on centred data;
        the plain loop's own moments about the origin lose ~eps * 1e8 of
        every variance and miss that reference by far more than EM_RTOL."""
        rng = np.random.default_rng(95)
        cfg = ModelConfig()
        x = 1e4 + rng.standard_normal((600, 6)) * rng.uniform(0.5, 2.0, 6)
        init = lbg_one(x, 8, cfg)
        centre = x.mean(axis=0)
        centred_init = mixture(init.weights[0], init.means[0] - centre, init.variances[0])
        weights, means, variances, _ = plain_em_train(x - centre, centred_init, cfg)
        model = em_one(x, init, cfg)
        assert_em_close(model, weights, means + centre, variances, x.std(axis=0))
        _, _, uncentred, _ = plain_em_train(x, init, cfg)
        assert np.max(np.abs(uncentred - variances) / variances) > 100 * EM_RTOL


def assert_same_model(got, want):
    """Stacks of one, bit for bit, EM trace included."""
    for name in ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.traces == want.traces


def train_stack(xs, m, cfg, names=None) -> GmmStack:
    stacked = np.concatenate(xs)
    return em_train(stacked, lbg_init(stacked, [len(x) for x in xs], m, cfg, names=names), cfg)


def train_alone(x, m, cfg) -> GmmStack:
    return em_train_one(x, lbg_init_one(x, m, cfg), cfg)


class TestStackAgainstTrainingAlone:
    """Every model of a stack has the bits of its speaker trained alone by
    the per-speaker reference (``oracles.lbg_init_one``, ``em_train_one``)."""

    def test_unequal_row_counts(self):
        rng = np.random.default_rng(97)
        cfg = ModelConfig()
        for m in (1, 2, 8, 16):
            xs = [rng.standard_normal((n, 19)) * rng.uniform(0.1, 3.0, 19) + rng.uniform(-3, 3, 19)
                  for n in (16 * m, 199, 37 * m + 5)]
            stack = train_stack(xs, m, cfg)
            assert stack.sizes == tuple(len(x) for x in xs)
            for i, x in enumerate(xs):
                assert_same_model(row_of(stack, i), train_alone(x, m, cfg))
            assert len(stack.em_log_likelihoods) == cfg.em_iterations + 1
            assert stack.em_log_likelihoods == tuple(sum(t) for t in zip(*stack.traces))

    def test_stack_of_one(self):
        rng = np.random.default_rng(98)
        x = rng.standard_normal((400, 6)) + 2.0
        cfg = ModelConfig()
        stack = train_stack([x], 8, cfg)
        assert_same_model(stack, train_alone(x, 8, cfg))
        assert stack.em_log_likelihoods == stack.traces[0]

    def test_speakers_whose_lbg_reseeds_an_empty_cell(self, monkeypatch):
        """Clumped speakers reseed empty cells; the clouds between them do not."""
        reseeds = []
        reseed = gmm._reseed_empty_cells

        def counting(*args):
            reseeds.append(args[0].shape[0])
            return reseed(*args)

        monkeypatch.setattr(gmm, "_reseed_empty_cells", counting)
        rng = np.random.default_rng(99)
        cfg = ModelConfig()
        xs = [rng.standard_normal((150, 3))] + [clumped(seed) for seed in range(8)]
        xs.insert(4, rng.standard_normal((90, 3)) * 3.0)
        stack = train_stack(xs, 8, cfg)
        assert reseeds and set(reseeds) == {64}
        for i, x in enumerate(xs):
            assert_same_model(row_of(stack, i), train_alone(x, 8, cfg))

    def test_speaker_whose_em_collapses(self):
        """The far component of ``test_collapsed_component_recovers``'s init
        is reseeded within its own speaker only."""
        rng = np.random.default_rng(57)
        x = rng.standard_normal((200, 2))
        far = mixture(weights=np.array([0.5, 0.5]),
                      means=np.array([[0.0, 0.0], [1e6, 1e6]]),
                      variances=np.array([[1.0, 1.0], [1e-4, 1e-4]]))
        cfg = ModelConfig(em_iterations=10)
        before, after = rng.standard_normal((150, 2)) * 2.0 + 1.0, rng.standard_normal((90, 2))
        xs = [before, x, after]
        inits = [lbg_init_one(before, 2, cfg), far, lbg_init_one(after, 2, cfg)]
        stack = em_train(np.concatenate(xs), stack_of(*inits, sizes=[len(v) for v in xs]), cfg)
        assert np.all(np.abs(stack.means[1]) < 10.0)
        for i, (data, init) in enumerate(zip(xs, inits)):
            assert_same_model(row_of(stack, i), em_train_one(data, init, cfg))

    def test_a_speakers_bits_do_not_depend_on_its_stack(self):
        """The same speaker in stacks with other speakers, in other orders."""
        rng = np.random.default_rng(100)
        cfg = ModelConfig()
        xs = {
            "a": rng.standard_normal((199, 19)),
            "b": rng.standard_normal((80, 19)) * 0.1 + 5.0,
            "c": rng.standard_normal((400, 19)) * rng.uniform(0.5, 2.0, 19),
            "d": rng.standard_normal((123, 19)) - 1.0,
        }
        alone = {k: train_alone(x, 8, cfg) for k, x in xs.items()}
        for order in ("abcd", "dcba", "bd", "ca", "cbda", "a"):
            stack = train_stack([xs[k] for k in order], 8, cfg)
            for i, k in enumerate(order):
                assert_same_model(row_of(stack, i), alone[k])

    def test_insufficient_data_names_the_first_failing_speaker(self):
        rng = np.random.default_rng(101)
        cfg = ModelConfig()
        ok = rng.standard_normal((100, 2))
        names = ["a", "b", "c"]
        xs = [ok, rng.standard_normal((3, 2)), rng.standard_normal((2, 2))]
        with pytest.raises(InsufficientData, match="^b: 3 vectors for 4 components$"):
            train_stack(xs, 4, cfg, names=names)
        with pytest.raises(InsufficientData, match="^speaker 1: 3 vectors for 4 components$"):
            train_stack(xs, 4, cfg)
        few_distinct = rng.standard_normal((6, 2))[rng.integers(0, 6, 40)]
        with pytest.raises(InsufficientData, match="^b: could not populate every cell"):
            train_stack([ok, few_distinct, few_distinct], 8, cfg, names=names)

    def test_sizes_must_split_the_rows(self):
        x = np.random.default_rng(102).standard_normal((50, 2))
        for sizes in ([20, 20], [60], [], [60, -10]):
            with pytest.raises(ValueError, match="do not split 50 rows"):
                lbg_init(x, sizes, 2, ModelConfig())
        init = lbg_init(x, [25, 25], 2, ModelConfig())
        with pytest.raises(ValueError, match="do not split 40 rows"):
            em_train(x[:40], init, ModelConfig())
