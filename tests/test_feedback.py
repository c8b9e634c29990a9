"""Feedback-training unit tests: neighborhood search semantics, the shipped
oracles, warm-up trainer mechanics (streaks, divergence, alpha replay),
oracle-feedback loop mechanics, and the policy comparison scaffold."""
import numpy as np
import pytest

from evslicer.events import EventStream, Scenario, build_cells, synth_stream
from evslicer.feedback import (
    ArenaConfig,
    ArenaResult,
    DensityTargetOracle,
    DivergenceError,
    EvalContext,
    FeedbackConfig,
    OracleError,
    ScriptedOracle,
    ToyClassifierOracle,
    build_arena_net,
    compare_policies,
    cosine_lr,
    neighborhood_search,
    replay_alpha,
    sliced_dataset,
    train_arena,
    train_feedback,
)
from evslicer.snn import SlicerNet

MICRO = dict(task="arena-i", arch="LN-IF", in_hw=(8, 8), n_steps=6,
             max_iters=200, lr=3e-4, target=3)


def uniform_stream(n_cells, dt_us=100, events_per_cell=4, seed=0, hw=(8, 8)):
    h, w = hw
    rng = np.random.default_rng(seed)
    span = n_cells * dt_us
    n_ev = n_cells * events_per_cell
    # one event pinned per cell so no candidate group is ever empty
    pinned = np.arange(n_cells) * dt_us
    extra = rng.integers(0, span, size=n_ev - n_cells)
    t = np.sort(np.concatenate([pinned, extra]))
    return EventStream(
        t=t.astype(np.int64),
        x=rng.integers(0, w, n_ev).astype(np.int64),
        y=rng.integers(0, h, n_ev).astype(np.int64),
        p=rng.choice([-1, 1], n_ev).astype(np.int64),
        width=w, height=h, t0=0, span_us=span,
    )


def counted_stream(counts, dt_us=100, hw=(8, 8)):
    """Stream with exactly counts[n] events inside cell n."""
    h, w = hw
    ts = []
    for n, c in enumerate(counts):
        ts.extend(n * dt_us + np.arange(c))
    t = np.array(sorted(ts), dtype=np.int64)
    n_ev = len(t)
    return EventStream(
        t=t, x=np.zeros(n_ev, dtype=np.int64), y=np.zeros(n_ev, dtype=np.int64),
        p=np.ones(n_ev, dtype=np.int64), width=w, height=h,
        t0=0, span_us=len(counts) * dt_us,
    )


class TestNeighborhoodSearch:
    def test_scripted_argmin(self):
        # losses [3,1,2,5,4] on candidates n_c-2..n_c+2 -> pick n_c-1
        stream = uniform_stream(10)
        cells = build_cells(stream, 100)
        oracle = ScriptedOracle({2: 3, 3: 1, 4: 2, 5: 5, 6: 4})
        fb = neighborhood_search(stream, cells, -1, 4, 2, oracle)
        assert fb.candidates == [2, 3, 4, 5, 6]
        assert fb.losses == [3, 1, 2, 5, 4]
        assert fb.n_star == 3 and not fb.degenerate

    def test_radius_zero_single_candidate(self):
        stream = uniform_stream(10)
        cells = build_cells(stream, 100)
        fb = neighborhood_search(stream, cells, -1, 4, 0, ScriptedOracle({4: 7.0}))
        assert fb.candidates == [4] and fb.n_star == 4

    def test_clipping_at_edges(self):
        stream = uniform_stream(10)
        cells = build_cells(stream, 100)
        oracle = ScriptedOracle({e: float(e) for e in range(10)})
        left = neighborhood_search(stream, cells, -1, 0, 2, oracle)
        assert left.candidates == [0, 1, 2]
        right = neighborhood_search(stream, cells, -1, 9, 2, oracle)
        assert right.candidates == [7, 8, 9]
        shared = neighborhood_search(stream, cells, 3, 5, 2, oracle)
        assert shared.candidates == [4, 5, 6, 7]   # left edge bounded by n_p
        capped = neighborhood_search(stream, cells, -1, 5, 2, oracle, limit=6)
        assert capped.candidates == [3, 4, 5, 6]

    def test_tie_breaks_to_smallest(self):
        stream = uniform_stream(10)
        cells = build_cells(stream, 100)
        fb = neighborhood_search(stream, cells, -1, 4, 2,
                                 ScriptedOracle({2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 1.0}))
        assert fb.n_star == 2

    def test_candidate_supersets(self):
        # shared left edge: each wider candidate contains the previous one
        stream = uniform_stream(12, seed=5)
        cells = build_cells(stream, 100)
        seen = []

        class Capture:
            def evaluate(self, rep, ctx):
                seen.append(ctx.n_events)
                return 0.0

        neighborhood_search(stream, cells, 1, 6, 2, Capture())
        assert seen == sorted(seen)

    def test_degenerate_when_no_events(self):
        stream = counted_stream([3, 0, 0, 0, 0, 0])
        cells = build_cells(stream, 100)
        # left edge at cell 1: all candidates cover only empty cells
        fb = neighborhood_search(stream, cells, 0, 3, 1, DensityTargetOracle(5))
        assert fb.degenerate and fb.n_star == 3

    def test_density_target_exact_optimum(self):
        # cumulative counts 5,10,15,20: target 20 is met exactly at n_c+2
        stream = counted_stream([5, 5, 5, 5, 30, 30])
        cells = build_cells(stream, 100)
        fb = neighborhood_search(stream, cells, -1, 1, 2, DensityTargetOracle(20))
        assert fb.n_star == 3

    def test_invalid_inputs(self):
        stream = uniform_stream(10)
        cells = build_cells(stream, 100)
        oracle = ScriptedOracle({})
        with pytest.raises(ValueError, match="radius"):
            neighborhood_search(stream, cells, -1, 4, -1, oracle)
        with pytest.raises(ValueError, match="outside"):
            neighborhood_search(stream, cells, 4, 4, 1, oracle)
        with pytest.raises(ValueError, match="outside"):
            neighborhood_search(stream, cells, -1, 10, 1, oracle)


class TestOracles:
    def test_density_target_loss(self):
        oracle = DensityTargetOracle(10)
        ctx = EvalContext(None, 0, 100, 7, 0)
        assert oracle.evaluate(None, ctx) == 3.0
        with pytest.raises(ValueError):
            DensityTargetOracle(0)

    def test_classifier_learns_separable_toy(self):
        rng = np.random.default_rng(0)
        batch = []
        for _ in range(40):
            frame = np.zeros((2, 4, 4))
            label = int(rng.integers(0, 2))
            frame[label] = rng.poisson(3.0, (4, 4)) + 1.0    # class in its own channel
            batch.append((frame, label))
        clf = ToyClassifierOracle((2, 4, 4), hidden=8, lr=0.5, seed=0)
        before = clf.accuracy(batch)
        for _ in range(30):
            clf.finetune(batch)
        assert clf.accuracy(batch) >= max(before, 0.9)

    def test_classifier_evaluate_needs_label(self):
        clf = ToyClassifierOracle((2, 4, 4), seed=0)
        with pytest.raises(ValueError, match="label"):
            clf.evaluate(np.zeros((2, 4, 4)), EvalContext(None, 0, 1, 0, 0))

    def test_classifier_evaluate_is_pure(self):
        clf = ToyClassifierOracle((2, 4, 4), seed=0)
        frame = np.ones((2, 4, 4))
        ctx = EvalContext(1, 0, 1, 16, 0)
        first = clf.evaluate(frame, ctx)
        weights = clf.w1.data.copy()
        assert clf.evaluate(frame, ctx) == first
        assert np.array_equal(clf.w1.data, weights)

    def test_cosine_lr_boundaries(self):
        assert cosine_lr(0.1, 0, 100) == pytest.approx(0.1)
        assert cosine_lr(0.1, 100, 100) == pytest.approx(0.0, abs=1e-18)
        assert cosine_lr(0.1, 50, 100) == pytest.approx(0.05)


class TestArena:
    def test_micro_convergence_and_streak(self):
        cfg = ArenaConfig(seed=0, **MICRO)
        res = train_arena(build_arena_net(cfg), cfg)
        assert res.converged
        assert res.converged_at is not None and res.converged_at <= 50
        # streak property: the last `streak` iterations all hit the target
        tail = res.history[-cfg.streak:]
        assert all(h["hit"] for h in tail)
        assert res.history[-1]["converged"]
        assert res.iterations == res.converged_at + cfg.streak

    def test_history_replays_alpha_exactly(self):
        cfg = ArenaConfig(seed=1, **MICRO)
        res = train_arena(build_arena_net(cfg), cfg)
        replayed, logged = replay_alpha(res.history, cfg.alpha0, cfg.eta)
        assert replayed == logged

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_raises(self):
        cfg = ArenaConfig(seed=0, **{**MICRO, "lr": 1e6, "max_iters": 50})
        with pytest.raises(DivergenceError, match=r"non-finite loss .* max\|U\|="):
            train_arena(build_arena_net(cfg), cfg)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_in_the_last_update_raises(self):
        """The float32 update overflows, and no later loss would see it."""
        cfg = ArenaConfig(seed=0, **{**MICRO, "lr": 1e38, "lr_schedule": "constant",
                                     "max_iters": 1})
        with pytest.raises(DivergenceError, match="non-finite parameters"):
            train_arena(build_arena_net(cfg), cfg)

    def test_max_iters_zero(self):
        cfg = ArenaConfig(seed=0, **{**MICRO, "max_iters": 0})
        res = train_arena(build_arena_net(cfg), cfg)
        assert res.history == [] and not res.converged and res.iterations == 0

    def test_task_ii_noise_uses_wrong_targets(self):
        cfg = ArenaConfig(task="arena-ii", arch="LN-IF", in_hw=(8, 8), n_steps=6,
                          max_iters=40, lr=1e-5, seed=0, target=3, noise_prob=0.5,
                          streak=10**9)   # never converge; we only inspect the log
        res = train_arena(build_arena_net(cfg), cfg)
        supervised = [h["supervised"] for h in res.history]
        assert any(s != 3 for s in supervised)        # noise fired
        assert all(0 <= s < 6 for s in supervised)
        assert all(h["n_star"] == 3 for h in res.history)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="task"):
            ArenaConfig(task="arena-iii")
        with pytest.raises(ValueError, match="streak"):
            ArenaConfig(streak=0)
        with pytest.raises(ValueError, match="noise_prob"):
            ArenaConfig(noise_prob=1.5)


class TestFeedbackLoop:
    def run_micro(self, oracle=None, **over):
        stream = uniform_stream(24, events_per_cell=6, seed=3)
        cfg = FeedbackConfig(dt_us=100, epochs=2, samples_per_epoch=6, window=8,
                             lr=1e-4, seed=0, **over)
        net = build_arena_net(ArenaConfig(arch="LN-IF", in_hw=(8, 8), seed=0))
        oracle = oracle or DensityTargetOracle(12)
        result = train_feedback(net, oracle, [stream], cfg)
        return result, cfg

    def test_runs_and_logs(self):
        result, cfg = self.run_micro()
        assert result.samples == cfg.epochs * cfg.samples_per_epoch
        assert result.skipped == 0
        sample_entries = [h for h in result.history if "loss" in h]
        epoch_entries = [h for h in result.history if "pairs" in h]
        assert len(sample_entries) == result.samples
        assert len(epoch_entries) == cfg.epochs
        for h in sample_entries:
            assert 0 <= h["n_star"] < cfg.window

    def test_alpha_replay_exact(self):
        result, cfg = self.run_micro()
        replayed, logged = replay_alpha(result.history, cfg.alpha0, cfg.eta)
        assert len(replayed) == cfg.epochs
        assert replayed == logged

    def test_oracle_failure_skips_sample(self):
        class Flaky:
            def __init__(self):
                self.calls = 0

            def evaluate(self, rep, ctx):
                self.calls += 1
                if self.calls % 7 == 0:
                    raise OracleError("downstream exploded")
                return float(ctx.n_events)

        result, cfg = self.run_micro(oracle=Flaky())
        assert result.skipped > 0
        skipped_entries = [h for h in result.history if h.get("skipped")]
        assert len(skipped_entries) == result.skipped
        assert "downstream exploded" in skipped_entries[0]["error"]
        # non-skipped samples still trained
        assert any("loss" in h and not h.get("skipped") for h in result.history)

    def test_oracle_bug_escapes_training(self):
        class Buggy:
            def evaluate(self, rep, ctx):
                return {}["missing"]

        with pytest.raises(KeyError, match="missing"):
            self.run_micro(oracle=Buggy())

    def test_finetune_stage_invoked(self):
        calls = []

        class CountingOracle(DensityTargetOracle):
            def finetune(self, batch):
                calls.append(len(batch))

        result, cfg = self.run_micro(oracle=CountingOracle(12), finetune_start=1)
        assert len(calls) == 1          # epochs=2, finetune after epoch index 1
        assert calls[0] > 0
        assert any("finetune_samples" in h for h in result.history)

    def test_default_config_trains_the_cli_head(self):
        """FeedbackConfig's defaults on the head `train feedback` builds by
        default (LN-IF on 32x32 cells) train without diverging, on two bar
        streams whose rate runs 2, 6, then 2 events/ms; a default lr of 0.05
        once diverged here within the first two epochs."""
        scenario = Scenario(duration_ms=600, rate_per_ms=[[0, 200, 2.0], [200, 400, 6.0],
                                                          [400, 600, 2.0]])
        streams = [synth_stream(scenario, seed=seed) for seed in (1, 2)]
        net = SlicerNet("LN-IF", in_hw=(32, 32), seed=0)
        cfg = FeedbackConfig()
        result = train_feedback(net, DensityTargetOracle(120), streams, cfg)
        losses = [h["loss"] for h in result.history if "loss" in h]
        assert len(losses) == cfg.epochs * cfg.samples_per_epoch and result.skipped == 0
        assert np.isfinite(losses).all()
        assert losses[-1] < losses[0]
        assert np.mean(losses[-cfg.samples_per_epoch:]) < np.mean(losses[:cfg.samples_per_epoch])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="radius"):
            FeedbackConfig(d=0)
        with pytest.raises(ValueError, match="window"):
            FeedbackConfig(window=1)
        with pytest.raises(ValueError, match="finetune_start"):
            FeedbackConfig(epochs=3, finetune_start=4)


class TestComparisonScaffold:
    def make_data(self, n_streams, seed0):
        return [(uniform_stream(16, events_per_cell=5, seed=seed0 + i), i % 2)
                for i in range(n_streams)]

    def test_matched_slice_counts(self):
        net = build_arena_net(ArenaConfig(arch="LN-IF", in_hw=(8, 8), seed=0))
        data = self.make_data(3, seed0=10)
        adaptive, counts_a = sliced_dataset(net, data, 100, "adaptive")
        fixed, counts_f = sliced_dataset(net, data, 100, "fixed-duration")
        assert counts_a == counts_f
        assert len(adaptive) == len(fixed)

    def test_unknown_policy(self):
        net = build_arena_net(ArenaConfig(arch="LN-IF", in_hw=(8, 8), seed=0))
        with pytest.raises(ValueError, match="policy"):
            sliced_dataset(net, self.make_data(1, 0), 100, "by-vibes")
        with pytest.raises(ValueError, match="target_events"):
            sliced_dataset(net, self.make_data(1, 0), 100, "fixed-count")

    def test_compare_policies_reports_all(self):
        net = build_arena_net(ArenaConfig(arch="LN-IF", in_hw=(8, 8), seed=0))
        train = self.make_data(4, seed0=20)
        test = self.make_data(2, seed0=40)
        out = compare_policies(net, train, test, 100,
                               policies=("adaptive", "fixed-duration", "random"),
                               clf_passes=1, clf_hidden=4)
        assert set(out) == {"adaptive", "fixed-duration", "random"}
        for row in out.values():
            assert 0.0 <= row["accuracy"] <= 1.0
            assert row["train_slices"] > 0
