from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from tsgad import gan, inversion, lstm
from tsgad.config import validate_config
from tsgad.inversion import _descend, invert, invert_many, objective


def settings(**overrides):
    """The validated ``inversion`` section with ``overrides`` on top."""
    return {**validate_config({})["inversion"], **overrides}


def generate(gen, z):
    """The generator's forward pass, as inversion runs it."""
    return lstm.forward_batch(gen, z)[0]


def error(x, y):
    """The error of one (timesteps, columns) pair, as a stack of one."""
    return objective(x[None], y[None])[0][0]


def invert_one(gen, window, cfg, seed):
    """The inversion of one (timesteps, columns) window, alone in its stack:
    ``(latent, error, iterations, reconstruction)``, row 0 of each array."""
    return tuple(a[0] for a in invert(gen, window[None], cfg, [seed]))


def consecutive(seed, windows):
    """One seed per window of a stack: ``seed + i`` for window i."""
    return range(seed, seed + len(windows))


def score_windows(model, windows, cfg, seeds):
    """The two calls with which ``pipeline.run_detect`` scores its stack of
    windows, as ``(errors, iterations, component_residuals, disc)``: the
    component residuals are |window - reconstruction| against the
    reconstructions ``invert_many`` made, and ``disc`` is the D score per
    timestep of one ``forward_outputs`` call.  test_cli checks that detect
    makes these two calls and no other."""
    _, errors, iterations, recon = invert_many(model.generator, windows, cfg, seeds)
    disc = inversion.forward_outputs(model.discriminator, windows)[..., 0]
    return errors, iterations, np.abs(windows - recon), disc


@pytest.fixture(scope="module")
def toy_generator():
    return gan.build_generator(3, latent_dim=4, depth=1, hidden=12,
                               rng=np.random.default_rng(0))


class TestSimilarity:
    """The objective's error is 1 minus the mean per-column Pearson correlation."""

    def test_self_correlation(self):
        x = np.random.default_rng(0).normal(size=(6, 3))
        assert 1.0 - error(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        x = np.random.default_rng(1).normal(size=(5, 2))
        assert 1.0 - error(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_affine_invariance(self):
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([[2.0], [4.0], [6.0]])
        assert 1.0 - error(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_constant_column_contributes_zero(self):
        x = np.column_stack([np.arange(4.0), np.arange(4.0)])
        y = np.column_stack([np.arange(4.0), np.full(4, 2.0)])
        assert 1.0 - error(x, y) == pytest.approx(0.5, abs=1e-12)
        npt.assert_array_equal(objective(x[None], y[None])[1][0, :, 1], np.zeros(4))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            objective(np.zeros((1, 3, 2)), np.zeros((1, 3, 3)))

    def test_too_few_timesteps(self):
        with pytest.raises(ValueError, match="timesteps"):
            objective(np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))

    def test_single_window_is_refused(self):
        with pytest.raises(ValueError, match=r"\(batch, timesteps >= 2, columns\)"):
            objective(np.zeros((3, 2)), np.zeros((3, 2)))

    def test_error_stays_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            err = error(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
            assert 0.0 <= err <= 2.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 3))
        grad = objective(x[None], y[None])[1][0]
        eps = 1e-6
        for t in range(6):
            for j in range(3):
                bumped = y.copy()
                bumped[t, j] += eps
                ep = error(x, bumped)
                bumped[t, j] -= 2 * eps
                em = error(x, bumped)
                npt.assert_allclose(grad[t, j], (ep - em) / (2 * eps), atol=1e-8)


class TestResidual:
    """The component residuals per window timestep, |window -
    reconstruction|, which detect averages onto stream rows and sums over
    variables for ``scores.csv``.
    With no descent steps and one restart, window i's
    reconstruction is G(z0) for z0 drawn from seed + i, so a test can plant
    windows at a known offset from their reconstructions."""

    STEPS, SEED = 6, 7
    NO_DESCENT = settings(max_iterations=0, restarts=1)

    @staticmethod
    def _model(columns):
        return SimpleNamespace(
            generator=gan.build_generator(columns, latent_dim=4, depth=1, hidden=12, rng=0),
            discriminator=gan.build_discriminator(columns, depth=1, hidden=4, rng=1),
        )

    def _reconstructions(self, model, count):
        # with one restart and no step, every reconstruction comes from the
        # descent's one forward pass over all ``count`` starts, and a float32
        # batch of another size may round differently, so this is that pass
        z0 = np.concatenate([
            np.random.default_rng(self.SEED + i).standard_normal((1, self.STEPS, 4))
            for i in range(count)
        ])
        return generate(model.generator, z0)

    def test_identity_reconstruction(self):
        model = self._model(3)
        windows = self._reconstructions(model, 2)
        _, _, comp_res, _ = score_windows(
            model, windows, self.NO_DESCENT, consecutive(self.SEED, windows)
        )
        npt.assert_array_equal(comp_res, np.zeros((2, self.STEPS, 3)))

    def test_single_column_arithmetic(self):
        model = self._model(1)
        offsets = np.arange(1.0, self.STEPS + 1.0)[None, :, None]
        windows = self._reconstructions(model, 1) + offsets
        _, _, comp_res, _ = score_windows(model, windows, self.NO_DESCENT,
                                          consecutive(self.SEED, windows))
        npt.assert_allclose(comp_res, offsets, rtol=0, atol=1e-15)

    def test_sums_over_variables(self):
        model = self._model(2)
        deltas = np.tile([[-1.0, 0.0], [1.0, 1.0]], (self.STEPS // 2, 1))
        windows = self._reconstructions(model, 1) + deltas
        _, _, comp_res, _ = score_windows(
            model, windows, self.NO_DESCENT, consecutive(self.SEED, windows)
        )
        npt.assert_allclose(comp_res[0], np.abs(deltas), rtol=0, atol=1e-15)
        npt.assert_allclose(comp_res.sum(axis=2), [[1.0, 2.0] * (self.STEPS // 2)], rtol=0,
                            atol=1e-15)

    def test_nonnegative(self):
        model = self._model(4)
        windows = np.random.default_rng(5).normal(size=(3, self.STEPS, 4))
        cfg = settings(max_iterations=3, restarts=2)
        errors, iterations, comp_res, disc = score_windows(
            model, windows, cfg, consecutive(self.SEED, windows)
        )
        assert errors.shape == iterations.shape == (3,)
        assert comp_res.shape == windows.shape
        assert np.all(comp_res >= 0.0)
        assert disc.shape == (3, self.STEPS)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            score_windows(
                self._model(2), np.zeros((1, self.STEPS, 3)), self.NO_DESCENT, [self.SEED]
            )


class TestInvert:
    def test_recovers_planted_latent(self, toy_generator):
        z_star = np.random.default_rng(100).standard_normal((1, 8, 4))
        target = generate(toy_generator, z_star)[0]
        cfg = settings(max_iterations=200, learning_rate=0.2)
        _, err, iterations, _ = invert_one(toy_generator, target, cfg, 0)
        assert err < 0.05
        assert iterations <= 200

    def test_zero_iteration_budget_returns_initial_sample(self, toy_generator):
        target = generate(toy_generator, np.random.default_rng(101).standard_normal((1, 8, 4)))[0]
        latent, _, iterations, _ = invert_one(
            toy_generator, target, settings(max_iterations=0, restarts=1), 5
        )
        assert iterations == 0
        z0 = np.random.default_rng(5).standard_normal((8, 4))
        npt.assert_array_equal(latent, z0)

    def test_reconstruction_equals_generator_output(self, toy_generator):
        # one restart: the descent batch that visited the latent is one row,
        # as a pass over the latent alone is
        target = generate(toy_generator, np.random.default_rng(102).standard_normal((1, 8, 4)))[0]
        latent, _, _, reconstruction = invert_one(toy_generator, target,
                                                  settings(max_iterations=30, restarts=1), 1)
        regenerated = generate(toy_generator, latent[None])[0]
        npt.assert_array_equal(reconstruction, regenerated)

    def test_seed_stability(self, toy_generator):
        target = generate(toy_generator, np.random.default_rng(103).standard_normal((1, 8, 4)))[0]
        errors = []
        for seed in (11, 12):
            errors.append(invert_one(toy_generator, target, settings(max_iterations=200), seed)[1])
        assert abs(errors[0] - errors[1]) < 0.05

    def test_deterministic_given_seed(self, toy_generator):
        target = generate(toy_generator, np.random.default_rng(104).standard_normal((1, 8, 4)))[0]
        cfg = settings(max_iterations=50)
        a = invert_one(toy_generator, target, cfg, 3)
        b = invert_one(toy_generator, target, cfg, 3)
        npt.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_descent_never_increases_error(self, toy_generator):
        # each row keeps the lowest-error latent it visits, the start included
        target = generate(toy_generator, np.random.default_rng(105).standard_normal((1, 8, 4)))[0]
        start = invert_one(toy_generator, target, settings(max_iterations=0, restarts=1), 9)[1]
        finish = invert_one(toy_generator, target, settings(max_iterations=60, restarts=1), 9)[1]
        assert finish <= start

    def test_window_shape_validation(self, toy_generator):
        with pytest.raises(ValueError, match="columns"):
            invert(toy_generator, np.zeros((1, 8, 5)), settings(), [0])
        with pytest.raises(ValueError, match=r"\(count, timesteps, columns\)"):
            invert(toy_generator, np.zeros((8, 3)), settings(), [0])


def one_row_adam(gen, window, z, cfg):
    """Adam on one restart, with its moments and bias correction written
    out (Kingma & Ba's defaults): ``(lowest error visited, steps taken)``."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m, v = np.zeros_like(z), np.zeros_like(z)
    best, steps = np.inf, 0
    while True:
        recon, cache = lstm.forward_batch(gen, z[None])
        err, err_grad = objective(window[None], recon)
        best = min(best, err[0])
        if best <= cfg["tolerance"] or steps == cfg["max_iterations"]:
            return best, steps
        grad = lstm.backward_batch(gen, cache, err_grad, weights=False)[1][0]
        steps += 1
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat, v_hat = m / (1.0 - beta1**steps), v / (1.0 - beta2**steps)
        z = z - cfg["learning_rate"] * m_hat / (np.sqrt(v_hat) + eps)


class TestBatchedRestarts:
    """All restarts of one window descend as one batch, each on its own
    Adam trajectory."""

    def test_rows_match_solo_descents(self, toy_generator):
        # row 0 starts at the planted latent, below the tolerance, so it takes
        # no step; the other two stop at the tolerance after different counts
        z_star = np.random.default_rng(107).standard_normal((1, 8, 4))
        target = generate(toy_generator, z_star)[0].astype(np.float64)
        targets = np.repeat(target[None], 3, axis=0)
        z0 = np.concatenate([z_star, np.random.default_rng(3).standard_normal((2, 8, 4))])
        cfg = settings(max_iterations=100, tolerance=0.02, learning_rate=0.2)
        _, errors, iterations, _ = _descend(toy_generator, targets, z0, cfg)
        assert len(set(iterations.tolist())) == 3 and iterations[0] == 0
        for r in range(3):
            solo = _descend(toy_generator, targets[r : r + 1], z0[r : r + 1], cfg)
            reference = one_row_adam(toy_generator, target, z0[r], cfg)
            assert solo[2][0] == reference[1]
            assert solo[1][0] == pytest.approx(reference[0], abs=1e-6)
            assert iterations[r] == solo[2][0]
            assert errors[r] == pytest.approx(solo[1][0], abs=1e-6)

    def test_no_descent_picks_the_best_serial_draw(self, toy_generator):
        # restart r starts from the r-th (8, 4) draw of default_rng(seed); the
        # three restarts are scored by one forward pass over all three draws
        target = generate(toy_generator, np.random.default_rng(109).standard_normal((1, 8, 4)))[0]
        draws = np.random.default_rng(13).standard_normal((3, 8, 4))
        outputs = generate(toy_generator, draws)
        errors = objective(np.repeat(target[None], 3, axis=0), outputs)[0]
        best = int(np.argmin(errors))
        assert len(set(errors.tolist())) == 3
        latent, err, iterations, recon = invert_one(
            toy_generator, target, settings(max_iterations=0, restarts=3), 13
        )
        npt.assert_array_equal(latent, draws[best])
        npt.assert_array_equal(recon, outputs[best])
        assert (err, iterations) == (errors[best], 0)


class TestWindowStack:
    """All windows x restarts of a stack descend together; window i keeps
    the draws of its own seed and its own Adam trajectory, so only float32
    rounding separates it from inverting the window alone."""

    SEED = 40
    # tolerance stops and a budget that some windows use up
    CFG = settings(max_iterations=25, tolerance=0.05, learning_rate=0.2, restarts=1)

    @pytest.fixture(scope="class")
    def stack(self, toy_generator):
        # window 0 is G of its own first draw, so it starts below the
        # tolerance; windows 1-6 are G of planted latents and window 7 is noise
        first = np.random.default_rng(self.SEED).standard_normal((1, 8, 4))
        planted = [np.random.default_rng(200 + k).standard_normal((1, 8, 4)) for k in range(6)]
        windows = generate(toy_generator, np.concatenate([first, *planted]))
        noise = np.random.default_rng(9).normal(size=(1, 8, 3))
        return np.concatenate([windows, noise]).astype(np.float64)

    def test_rows_match_solo_inversions(self, toy_generator, stack):
        _, errors, iterations, _ = invert(toy_generator, stack, self.CFG,
                                          consecutive(self.SEED, stack))
        budget = self.CFG["max_iterations"]
        assert iterations[0] == 0 and budget in iterations
        stopped = {n for n, e in zip(iterations.tolist(), errors)
                   if 0 < n < budget and e <= self.CFG["tolerance"]}
        assert len(stopped) >= 2, iterations
        for i in range(len(stack)):
            _, solo_error, solo_iterations, _ = invert_one(toy_generator, stack[i], self.CFG,
                                                           self.SEED + i)
            assert iterations[i] == solo_iterations, i
            assert errors[i] == pytest.approx(solo_error, abs=1e-6), i

    def test_more_iterations_never_raise_an_error(self, toy_generator, stack):
        # a larger budget runs the same trajectories further, and each row
        # keeps the lowest-error latent it visits
        errors = {n: invert(toy_generator, stack, settings(max_iterations=n, restarts=2),
                            consecutive(self.SEED, stack))[1]
                  for n in (0, 10, 50)}
        for i in range(len(stack)):
            assert errors[50][i] <= errors[10][i] + 1e-6, i
            assert errors[50][i] <= errors[0][i] + 1e-6, i

    def test_no_descent_takes_the_best_of_each_windows_draws(self, toy_generator, stack):
        restarts = 3
        latents, _, iterations, _ = invert(
            toy_generator, stack, settings(max_iterations=0, restarts=restarts),
            consecutive(self.SEED, stack)
        )
        npt.assert_array_equal(iterations, np.zeros(len(stack)))
        for i in range(len(stack)):
            draws = np.random.default_rng(self.SEED + i).standard_normal((restarts, 8, 4))
            errors = objective(np.repeat(stack[i][None], restarts, axis=0),
                               generate(toy_generator, draws))[0]
            npt.assert_array_equal(latents[i], draws[int(np.argmin(errors))])

    def test_explicit_seeds_start_each_window_from_its_own_draws(self, toy_generator, stack):
        # arbitrary seeds, one of them twice: window i's restarts are the
        # first R draws of default_rng(seeds[i]) in the whole stack, in a
        # stack of two and alone
        seeds = [1_000_000, 7, 7, 3, 40, 999, 1_000_001, 2]
        restarts = 3
        cfg = settings(max_iterations=0, restarts=restarts)
        latents = invert(toy_generator, stack, cfg, seeds)[0]
        part = [5, 1]
        npt.assert_array_equal(
            invert(toy_generator, stack[part], cfg, [seeds[i] for i in part])[0], latents[part]
        )
        for i, seed in enumerate(seeds):
            draws = np.random.default_rng(seed).standard_normal((restarts, 8, 4))
            errors = objective(np.repeat(stack[i][None], restarts, axis=0),
                               generate(toy_generator, draws))[0]
            npt.assert_array_equal(latents[i], draws[int(np.argmin(errors))])
            npt.assert_array_equal(invert_one(toy_generator, stack[i], cfg, seed)[0], latents[i])
        # with descent, each window follows its solo trajectory up to rounding
        _, errors, iterations, _ = invert(toy_generator, stack, self.CFG, seeds)
        for i, seed in enumerate(seeds):
            _, solo_error, solo_iterations, _ = invert_one(toy_generator, stack[i], self.CFG, seed)
            assert iterations[i] == solo_iterations, i
            assert errors[i] == pytest.approx(solo_error, abs=1e-6), i

    @pytest.mark.parametrize("seeds", [range(7), range(9), 40, [[40] * 8]],
                             ids=["too few", "too many", "one int", "nested"])
    def test_one_seed_per_window_is_required(self, toy_generator, stack, seeds):
        with pytest.raises(ValueError, match="one seed per window, for 8 windows"):
            invert(toy_generator, stack, self.CFG, seeds)

    @pytest.mark.parametrize("restarts", [1, 2, 3])
    def test_reconstructions_are_the_generator_outputs_at_the_latents(self, toy_generator,
                                                                      stack, restarts):
        # the descent scored each winner in a batch of 8 x restarts rows; at
        # one restart that is a batch of 8, as one pass over the 8 winners is
        latents, errors, _, recons = invert(toy_generator, stack,
                                            settings(max_iterations=5, restarts=restarts),
                                            consecutive(1, stack))
        npt.assert_array_equal(errors, objective(stack, recons)[0])
        regenerated = generate(toy_generator, latents)
        if restarts == 1:
            npt.assert_array_equal(recons, regenerated)
        else:
            npt.assert_allclose(recons, regenerated, rtol=0, atol=1e-6)

    def test_row_cap_moves_results_by_rounding_only(self, toy_generator, stack, monkeypatch):
        # three restarts at two rows per batch also split a window's restarts
        cfg = {**self.CFG, "restarts": 3}
        seeds = consecutive(self.SEED, stack)
        whole = invert(toy_generator, stack, cfg, seeds)
        monkeypatch.setattr(inversion, "MAX_BATCH_ROWS", 2)
        split = invert(toy_generator, stack, cfg, seeds)
        npt.assert_array_equal(whole[2], split[2])
        npt.assert_allclose(whole[1], split[1], rtol=0, atol=1e-6)
        npt.assert_allclose(whole[3], split[3], rtol=0, atol=1e-6)

    def test_empty_stack(self, toy_generator):
        with pytest.raises(ValueError, match="non-empty"):
            invert(toy_generator, np.zeros((0, 8, 3)), self.CFG, [])

    def test_diverged_window_is_named(self, toy_generator, stack, monkeypatch):
        # every restart of window 3 gets a nan gradient; the others stay finite
        marked = stack.copy()
        marked[3, 0, 0] = 123.0

        def poisoned(windows, recons):
            errors, grads = objective(windows, recons)
            grads[windows[:, 0, 0] == 123.0] = np.nan
            return errors, grads

        monkeypatch.setattr(inversion, "objective", poisoned)
        with pytest.raises(RuntimeError, match="window 3: all inversion restarts diverged"):
            invert(toy_generator, marked, settings(max_iterations=3, restarts=2),
                   consecutive(0, marked))


class TestBatchRowCap:
    """No LSTM pass of the inversion or of the discriminator's scoring sees
    more than ``MAX_BATCH_ROWS`` rows, so the caches of a large test set
    stay bounded."""

    CAP = 3

    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        sizes = []
        forward = lstm.forward_batch

        def recording(net, sequences, **kwargs):
            sizes.append(len(sequences))
            return forward(net, sequences, **kwargs)

        monkeypatch.setattr(inversion, "MAX_BATCH_ROWS", self.CAP)
        monkeypatch.setattr(lstm, "forward_batch", recording)
        return sizes

    def test_invert(self, toy_generator, batch_sizes, monkeypatch):
        scored = []

        def counting(windows, recons):
            scored.append(len(recons))
            return objective(windows, recons)

        monkeypatch.setattr(inversion, "objective", counting)
        windows = np.random.default_rng(8).normal(size=(7, 8, 3))
        cfg = settings(max_iterations=2, restarts=2, tolerance=0.0)
        latents, errors, _, recons = invert(toy_generator, windows, cfg, consecutive(0, windows))
        # the 14 restarts descend 3, 3, 3, 3 and 2 at a time, each batch
        # forwarded and scored once per step, the start included, and
        # nothing is forwarded or scored after the last batch's last step
        descent = [n for n in (3, 3, 3, 3, 2) for _ in range(cfg["max_iterations"] + 1)]
        assert batch_sizes == descent and scored == descent
        npt.assert_array_equal(errors, objective(windows, recons)[0])

    def test_score_windows(self, batch_sizes):
        model = TestResidual._model(3)
        windows = np.random.default_rng(9).normal(size=(7, TestResidual.STEPS, 3))
        whole = generate(model.discriminator, windows)[..., 0]
        batch_sizes.clear()
        *_, disc = score_windows(
            model, windows, settings(max_iterations=2, restarts=2), consecutive(0, windows)
        )
        assert max(batch_sizes) <= self.CAP
        assert batch_sizes[-3:] == [3, 3, 1]
        # a batch of 3 rounds in float32 as a batch of 7 may not
        npt.assert_allclose(disc, whole, rtol=0, atol=1e-6)

    def test_up_to_the_cap_is_one_call(self, toy_generator, batch_sizes):
        latents = np.random.default_rng(10).normal(size=(self.CAP, 8, 4))
        out = inversion.forward_outputs(toy_generator, latents)
        assert batch_sizes == [self.CAP]
        npt.assert_array_equal(out, generate(toy_generator, latents))


@pytest.mark.parametrize("max_iterations", [0, 2])
def test_every_kept_cache_is_read(max_iterations, kept_caches):
    # the descent's last forward and the discriminator's scoring run with
    # cache=False
    model = TestResidual._model(3)
    windows = np.random.default_rng(11).normal(size=(5, TestResidual.STEPS, 3))
    cfg = settings(max_iterations=max_iterations, restarts=2, tolerance=0.0)
    score_windows(model, windows, cfg, consecutive(0, windows))
    kept, unread = kept_caches()
    # one cache per descent step, each read by that step's backward
    assert len(kept) == max_iterations and not unread


@pytest.mark.parametrize("max_iterations", [0, 2])
def test_score_windows_forwards_each_net_once_per_pass(max_iterations, monkeypatch):
    # the generator runs once per descent step, the start included, and
    # never after the descent; the discriminator scores all windows once
    model = TestResidual._model(3)
    windows = np.random.default_rng(12).normal(size=(5, TestResidual.STEPS, 3))
    calls = []
    forward = lstm.forward_batch

    def counting(net, sequences, **kwargs):
        calls.append(net)
        return forward(net, sequences, **kwargs)

    monkeypatch.setattr(lstm, "forward_batch", counting)
    cfg = settings(max_iterations=max_iterations, restarts=2, tolerance=0.0)
    score_windows(model, windows, cfg, consecutive(0, windows))
    assert sum(net is model.generator for net in calls) == max_iterations + 1
    assert sum(net is model.discriminator for net in calls) == 1
    assert len(calls) == max_iterations + 2


def test_invert_many_matches_serial(toy_generator):
    # window i is the solo inversion with seed + i, up to float32 rounding:
    # the stack descends at batch 3 and a solo window at batch 1
    windows = generate(toy_generator, np.random.default_rng(106).standard_normal((3, 8, 4)))
    cfg = settings(max_iterations=25, restarts=1)
    latents, errors, iterations, recons = invert_many(toy_generator, windows, cfg,
                                                      consecutive(42, windows))
    assert (latents.shape, errors.shape, iterations.shape, recons.shape) == (
        (3, 8, 4), (3,), (3,), (3, 8, 3))
    for i in range(3):
        latent, err, steps, _ = invert_one(toy_generator, windows[i], cfg, 42 + i)
        assert iterations[i] == steps
        assert errors[i] == pytest.approx(err, abs=1e-6)
        npt.assert_allclose(latents[i], latent, rtol=0, atol=1e-5)
