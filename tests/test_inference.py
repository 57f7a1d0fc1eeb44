"""TTA, majority voting, postprocessing and the composed pipeline."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from bitrunet import inference
from bitrunet.data import make_sphere_case
from bitrunet.inference import (
    apply_flip,
    external_to_internal,
    flip_combos,
    internal_to_external,
    majority_vote,
    mask_from_probs,
    predict_probs,
    tta_predict,
    volume_threshold_postprocess,
)
from bitrunet.model import BiTrUnetModel, ModelConfig
from bitrunet.tensor import Tape, Tensor
from bitrunet.training import TrainConfig, train_loop

rng = np.random.default_rng(23)


class ConstantScoreModel:
    """Stub: fixed per-class scores everywhere, any input."""

    dtype = np.float64

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)

    def forward(self, x):
        n, _, h, w, d = x.shape
        out = np.broadcast_to(
            self.scores[None, :, None, None, None], (n, len(self.scores), h, w, d)
        )
        return Tensor(out.copy())


class BackgroundModel(ConstantScoreModel):
    def __init__(self, k=4):
        scores = np.full(k, -5.0)
        scores[0] = 5.0
        super().__init__(scores)


class FieldScoreModel:
    """Stub: the scores are the input times a fixed random field, so no two
    flips give the same map."""

    dtype = np.float64

    def __init__(self, shape):
        self.field = np.random.default_rng(31).standard_normal(shape)

    def forward(self, x):
        return Tensor(x.data * self.field)


def tiny_trained_model(iters=12, size=16):
    cfg = ModelConfig(in_channels=4, base_width=4, num_classes=2, embed_dim=16,
                      vit_layers=1, heads=2, ffn_hidden=32,
                      input_size=(size, size, size))
    model = BiTrUnetModel(cfg, seed=2, dtype=np.float32)
    rec = make_sphere_case(size=size, radius=5, seed=8)
    train_loop(model, [(rec.volume.data, rec.label.astype(np.int64))],
               TrainConfig(iters=iters, augment=0, seed=1))
    return model


class TestLabels:
    def test_bijection(self):
        internal = np.array([0, 1, 2, 3], dtype=np.uint8)
        ext = internal_to_external(internal)
        assert ext.tolist() == [0, 1, 2, 4]
        assert external_to_internal(ext).tolist() == [0, 1, 2, 3]

    def test_unknown_external_label_rejected(self):
        with pytest.raises(ValueError, match="labels outside"):
            external_to_internal(np.array([0, 3]))


class TestFlipCombos:
    def test_exactly_eight_distinct(self):
        combos = flip_combos()
        assert len(combos) == 8
        assert len(set(combos)) == 8

    def test_combo_applied_twice_is_identity(self):
        x = rng.standard_normal((4, 5, 6, 7))
        for combo in flip_combos():
            assert np.array_equal(apply_flip(apply_flip(x, combo), combo), x)


class TestTtaPredict:
    def test_constant_model_gives_constant_map(self):
        model = ConstantScoreModel([0.0, 1.0, 2.0, -1.0])
        x = rng.standard_normal((4, 16, 16, 16))
        probs = tta_predict(model, x)
        e = np.exp(model.scores - model.scores.max())
        expect = e / e.sum()
        assert np.allclose(probs, expect[:, None, None, None], atol=1e-12)

    def test_class_sums_stay_one(self):
        model = tiny_trained_model(iters=4)
        rec = make_sphere_case(size=16, radius=5, seed=8)
        probs = tta_predict(model, rec.volume.data)
        assert np.abs(probs.sum(axis=0) - 1.0).max() < 1e-5

    def test_divisibility_check(self):
        # the model's forward checks the shape; TTA adds no copy of that check
        with pytest.raises(ValueError,
                           match="forward: spatial axis 3 size 20 is not divisible by 16"):
            tta_predict(tiny_trained_model(iters=0), np.zeros((4, 16, 20, 16)))

    def test_flip_equivariance_on_trained_model(self):
        model = tiny_trained_model(iters=8)
        rec = make_sphere_case(size=16, radius=5, seed=9)
        x = rec.volume.data
        base = tta_predict(model, x)
        for combo in flip_combos():
            flipped = tta_predict(model, np.ascontiguousarray(apply_flip(x, combo)))
            expect = apply_flip(base, combo)
            assert np.abs(flipped - expect).max() < 1e-6


def sequential_tta(model, x):
    """The reference: every flip in turn on this thread, summed in order."""
    acc = None
    for combo in flip_combos():
        scores = model.forward(Tensor(np.ascontiguousarray(apply_flip(x, combo))[None]))
        s = scores.data[0].astype(np.float64)
        s -= s.max(axis=0, keepdims=True)
        e = np.exp(s)
        probs = apply_flip(e / e.sum(axis=0, keepdims=True), combo)
        acc = probs.copy() if acc is None else acc + probs
    return acc / 8.0


needs_two_threads = pytest.mark.skipif(
    inference._blas_threads_api() is None or len(os.sched_getaffinity(0)) < 2,
    reason="needs OpenBLAS thread control and two usable CPUs",
)


class TestThreadedTta:
    """TTA runs the flips on a pool of two workers, with OpenBLAS held to one
    thread, or of one; the result is the sequential loop's."""

    @pytest.fixture(scope="class")
    def case(self):
        # the train-32 config at 32^3, untrained and seeded
        cfg = ModelConfig(in_channels=4, num_classes=4, input_size=(32, 32, 32),
                          base_width=16, embed_dim=32, vit_layers=1, heads=4,
                          ffn_hidden=64)
        model = BiTrUnetModel(cfg, seed=3, dtype=np.float32)
        x = make_sphere_case(size=32, radius=10, seed=4).volume.data
        return model, x, sequential_tta(model, x)

    @pytest.mark.parametrize("setup", ["two workers", "one cpu", "no blas control"])
    def test_bit_identical_to_the_sequential_loop(self, case, setup, monkeypatch):
        model, x, expect = case
        if setup == "two workers" and inference._blas_threads_api() is None:
            pytest.skip("needs OpenBLAS thread control")
        if setup == "one cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        if setup == "no blas control":
            monkeypatch.setattr(inference, "_blas_threads_api", lambda: None)
        threads = set()
        forward = model.forward

        def recording_forward(t):
            threads.add(threading.get_ident())
            return forward(t)

        monkeypatch.setattr(model, "forward", recording_forward)
        got = tta_predict(model, x)
        assert got.dtype == np.float64
        assert np.array_equal(got, expect)
        two = setup == "two workers" and len(os.sched_getaffinity(0)) > 1
        assert len(threads) == (2 if two else 1)

    @needs_two_threads
    def test_blas_thread_count_restored(self, case):
        model, x, _ = case
        get, put = inference._blas_threads_api()
        original = get()
        try:
            put(2)
            tta_predict(model, x)
            assert get() == 2
        finally:
            put(original)

    @needs_two_threads
    def test_error_in_a_flip_propagates_and_restores_blas(self, monkeypatch):
        # the first flip fails at once and each other flip takes 0.3 s, so
        # when the failure reaches the caller the other worker holds flip 1
        # and the failed one has at most taken flip 2; the rest are cancelled
        x = rng.standard_normal((4, 16, 16, 16))
        model = FieldScoreModel(x.shape)
        flips = [np.ascontiguousarray(apply_flip(x, c)) for c in flip_combos()]
        started = []
        forward = model.forward

        def first_flip_fails(t):
            i = next(i for i, f in enumerate(flips) if np.array_equal(t.data[0], f))
            started.append(i)
            if i == 0:
                raise RuntimeError("flip 0 failed")
            time.sleep(0.3)
            return forward(t)

        monkeypatch.setattr(model, "forward", first_flip_fails)
        get, put = inference._blas_threads_api()
        original = get()
        alive = threading.active_count()
        try:
            put(2)
            with pytest.raises(RuntimeError, match="flip 0 failed"):
                tta_predict(model, x)
            assert get() == 2
        finally:
            put(original)
        assert threading.active_count() == alive
        assert sorted(started) in ([0, 1], [0, 1, 2])

    @needs_two_threads
    def test_sum_in_flip_order_with_no_flip_lost_or_repeated(self):
        # the unflipped input is slow, so the worker finishes later flips
        # first; a flip run twice, one dropped, or a sum taken in the order
        # the flips finish changes the result
        x = rng.standard_normal((4, 16, 16, 16))

        class SlowFirstFlip(FieldScoreModel):
            def forward(self, t):
                if np.array_equal(t.data[0], x):
                    time.sleep(0.02)
                return super().forward(t)

        model = SlowFirstFlip(x.shape)
        expect = sequential_tta(model, x)
        # the order matters in the last bits: the first flip added last
        maps = [apply_flip(predict_probs(model, np.ascontiguousarray(apply_flip(x, c))), c)
                for c in flip_combos()]
        assert not np.array_equal(sum(maps[1:], np.zeros_like(x)) + maps[0], 8.0 * expect)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert np.array_equal(tta_predict(model, x), expect)
        finally:
            sys.setswitchinterval(interval)

    def test_rejected_under_an_active_tape(self, case):
        model, x, _ = case
        with Tape():
            with pytest.raises(ValueError, match="Tape is active"):
                tta_predict(model, x)


class TestMajorityVote:
    def test_unanimity(self):
        mask = rng.integers(0, 4, (3, 3, 3))
        probs = [rng.random((4, 3, 3, 3)) for _ in range(3)]
        out = majority_vote([mask.copy() for _ in range(3)], probs)
        assert np.array_equal(out, mask)

    def test_single_model_identity(self):
        mask = rng.integers(0, 4, (4, 4, 4))
        probs = [rng.random((4, 4, 4, 4))]
        assert np.array_equal(majority_vote([mask], probs), mask)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            majority_vote([], [])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            majority_vote(
                [np.zeros((2, 2, 2), int), np.zeros((3, 3, 3), int)],
                [np.zeros((4, 2, 2, 2))] * 2,
            )

    def test_winner_is_a_cast_vote_with_enough_support(self):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            masks = [rng.integers(0, 4, (3, 3, 3)) for _ in range(n)]
            probs = [rng.random((4, 3, 3, 3)) for _ in range(n)]
            out = majority_vote(masks, probs)
            votes = np.stack(masks)
            for idx in np.ndindex((3, 3, 3)):
                cast = votes[(slice(None),) + idx]
                winner = out[idx]
                assert winner in cast
                count = int((cast == winner).sum())
                distinct = len(set(cast.tolist()))
                assert count >= int(np.ceil(n / distinct))

    def test_shared_probability_scaling_does_not_change_outcome(self):
        masks = [rng.integers(0, 4, (3, 3, 3)) for _ in range(2)]
        probs = [rng.random((4, 3, 3, 3)) for _ in range(2)]
        base = majority_vote(masks, probs)
        scaled = majority_vote(masks, [0.25 * p for p in probs])
        assert np.array_equal(base, scaled)

    def test_final_tie_break_lowest_index(self):
        # two models, opposite votes, equal averaged probabilities
        m1 = np.full((2, 2, 2), 1)
        m2 = np.full((2, 2, 2), 3)
        p = np.full((4, 2, 2, 2), 0.25)
        out = majority_vote([m1, m2], [p.copy(), p.copy()])
        assert (out == 1).all()


class TestPostprocess:
    def test_zero_threshold_is_identity(self):
        mask = rng.integers(0, 4, (6, 6, 6))
        assert np.array_equal(volume_threshold_postprocess(mask, {1: 0, 2: 0, 3: 0}), mask)

    def test_small_component_removed(self):
        mask = np.zeros((8, 8, 8), dtype=np.int64)
        mask[2:3, 2:4, 2:4] = 3  # 4 voxels of class 3
        mask[6, 6, 6] = 3  # 1 more voxel, separate component
        out = volume_threshold_postprocess(mask, {3: 10})
        assert (out == 0).all()

    def test_idempotent(self):
        for _ in range(10):
            mask = rng.integers(0, 4, (8, 8, 8))
            thr = {1: 4, 2: 6, 3: 3}
            once = volume_threshold_postprocess(mask, thr)
            twice = volume_threshold_postprocess(once, thr)
            assert np.array_equal(once, twice)



class TestPredictCase:
    """The predict pipeline: per-model probabilities into ``mask_from_probs``."""

    def test_background_stub_gives_all_zero(self):
        x = rng.standard_normal((4, 16, 16, 16))
        out = mask_from_probs([predict_probs(BackgroundModel(), x)], {})
        assert out.shape == (16, 16, 16)
        assert (out == 0).all()

    def test_output_uses_external_vocabulary(self):
        # a stub voting for internal class 3 must emit external label 4
        scores = np.full(4, -5.0)
        scores[3] = 5.0
        x = rng.standard_normal((4, 16, 16, 16))
        probs = predict_probs(ConstantScoreModel(scores), x)
        out = mask_from_probs([probs], {})
        assert (out == 4).all()

    def test_single_model_pipeline_decomposition(self):
        model = tiny_trained_model(iters=6)
        rec = make_sphere_case(size=16, radius=5, seed=12)
        x = rec.volume.data
        postproc = {1: 3}
        probs = tta_predict(model, x)
        got = mask_from_probs([probs], postproc)
        expect = internal_to_external(
            volume_threshold_postprocess(probs.argmax(axis=0), postproc)
        )
        assert np.array_equal(got, expect)

    def test_empty_model_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mask_from_probs([], {})

    def test_tta_false_uses_single_pass(self):
        model = tiny_trained_model(iters=4)
        rec = make_sphere_case(size=16, radius=5, seed=12)
        probs = predict_probs(model, rec.volume.data)
        assert probs.shape == (2, 16, 16, 16)
        assert np.abs(probs.sum(axis=0) - 1.0).max() < 1e-6
