"""Region masks and the four evaluation metrics against hand counts and
brute-force oracles."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import ndimage

import bitrunet
from bitrunet import reference
from bitrunet.metrics import (
    HD95_EMPTY_SENTINEL,
    REGIONS,
    RegionSpec,
    check_labels,
    dice,
    evaluate_case,
    format_report,
    hd95,
    region_mask,
    sensitivity,
    specificity,
    summarize,
    surface_voxels,
)

rng = np.random.default_rng(31)

WT, TC, ET = REGIONS


class TestRegionMask:
    def test_region_definitions(self):
        assert WT.labels == {1, 2, 4}
        assert TC.labels == {1, 4}
        assert ET.labels == {4}
        assert ET.labels <= TC.labels <= WT.labels

    def test_background_only(self):
        mask = np.zeros((3, 3, 3), dtype=np.uint8)
        for region in REGIONS:
            assert not region_mask(mask, region).any()

    def test_all_enhancing_fills_every_region(self):
        mask = np.full((3, 3, 3), 4, dtype=np.uint8)
        for region in REGIONS:
            assert region_mask(mask, region).all()

    def test_mixed_mask_hand_enumeration(self):
        mask = np.array([1, 2, 4, 0, 2, 1, 4, 0], dtype=np.uint8).reshape(2, 2, 2)
        wt = region_mask(mask, WT)
        tc = region_mask(mask, TC)
        et = region_mask(mask, ET)
        assert wt.ravel().tolist() == [True, True, True, False, True, True, True, False]
        assert tc.ravel().tolist() == [True, False, True, False, False, True, True, False]
        assert et.ravel().tolist() == [False, False, True, False, False, False, True, False]

    def test_nesting_preserved_for_any_mask(self):
        mask = rng.choice([0, 1, 2, 4], (5, 5, 5))
        assert (region_mask(mask, ET) <= region_mask(mask, TC)).all()
        assert (region_mask(mask, TC) <= region_mask(mask, WT)).all()


class TestDice:
    def test_perfect_match(self):
        m = rng.random((4, 4, 4)) < 0.4
        m[0, 0, 0] = True
        assert dice(m, m) == 1.0

    def test_disjoint_sets(self):
        a = np.zeros((3, 3, 3), bool)
        b = np.zeros((3, 3, 3), bool)
        a[0, 0, 0] = True
        b[2, 2, 2] = True
        assert dice(a, b) == 0.0

    def test_hand_arithmetic(self):
        # |P| = 4, |T| = 6, |P ∩ T| = 3 -> 2*3 / 10 = 0.6
        p = np.zeros((2, 2, 3), bool)
        t = np.zeros((2, 2, 3), bool)
        p.ravel()[[0, 1, 2, 5]] = True
        t.ravel()[[0, 1, 2, 6, 7, 8]] = True
        assert dice(p, t) == pytest.approx(0.6)

    def test_both_empty_is_one(self):
        z = np.zeros((2, 2, 2), bool)
        assert dice(z, z) == 1.0

    def test_one_empty_is_zero(self):
        z = np.zeros((2, 2, 2), bool)
        f = np.ones((2, 2, 2), bool)
        assert dice(z, f) == 0.0
        assert dice(f, z) == 0.0

    def test_symmetry(self):
        a = rng.random((4, 4, 4)) < 0.3
        b = rng.random((4, 4, 4)) < 0.3
        assert dice(a, b) == dice(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            dice(np.zeros((2, 2, 2), bool), np.zeros((3, 3, 3), bool))


class TestSensitivitySpecificity:
    def test_perfect_prediction(self):
        m = rng.random((3, 3, 3)) < 0.5
        m[1, 1, 1] = True
        assert sensitivity(m, m) == 1.0
        m2 = m.copy()
        m2[0, 0, 0] = False  # keep at least one negative for specificity
        assert specificity(m2, m2) == 1.0

    def test_all_positive_prediction(self):
        truth = np.zeros((2, 2, 2), bool)
        truth.ravel()[:4] = True
        pred = np.ones((2, 2, 2), bool)
        assert sensitivity(pred, truth) == 1.0
        assert specificity(pred, truth) == 0.0

    def test_hand_tallied_confusion(self):
        pred = np.zeros((4, 4, 4), bool)
        truth = np.zeros((4, 4, 4), bool)
        pred.ravel()[:20] = True
        truth.ravel()[10:34] = True
        # tp = overlap of [0,20) and [10,34) = 10; fn = 24 - 10 = 14
        # fp = 20 - 10 = 10; tn = 64 - 10 - 14 - 10 = 30
        assert sensitivity(pred, truth) == pytest.approx(10 / 24)
        assert specificity(pred, truth) == pytest.approx(30 / 40)

    def test_empty_truth_conventions(self):
        empty = np.zeros((2, 2, 2), bool)
        pred = np.zeros((2, 2, 2), bool)
        assert sensitivity(pred, empty) == 1.0
        full = np.ones((2, 2, 2), bool)
        assert specificity(full, full) == 1.0

    def test_sensitivity_plus_fn_rate_is_one(self):
        pred = rng.random((4, 4, 4)) < 0.5
        truth = rng.random((4, 4, 4)) < 0.5
        truth[0, 0, 0] = True
        tp = int((pred & truth).sum())
        fn = int((~pred & truth).sum())
        assert sensitivity(pred, truth) + fn / (tp + fn) == pytest.approx(1.0)


class TestHd95:
    def test_identical_masks(self):
        m = rng.random((5, 5, 5)) < 0.3
        m[2, 2, 2] = True
        assert hd95(m, m) == 0.0

    def test_two_voxels_three_apart(self):
        a = np.zeros((8, 8, 8), bool)
        b = np.zeros((8, 8, 8), bool)
        a[1, 4, 4] = True
        b[4, 4, 4] = True
        assert hd95(a, b) == pytest.approx(3.0)

    def test_both_empty(self):
        z = np.zeros((3, 3, 3), bool)
        assert hd95(z, z) == 0.0

    def test_one_empty_sentinel(self):
        z = np.zeros((3, 3, 3), bool)
        f = np.zeros((3, 3, 3), bool)
        f[1, 1, 1] = True
        assert hd95(z, f) == HD95_EMPTY_SENTINEL
        assert hd95(f, z) == HD95_EMPTY_SENTINEL

    def test_symmetry(self):
        a = rng.random((6, 6, 6)) < 0.25
        b = rng.random((6, 6, 6)) < 0.25
        a[0, 0, 0] = b[5, 5, 5] = True
        assert hd95(a, b) == hd95(b, a)

    def test_spacing_scales_distances(self):
        a = np.zeros((8, 4, 4), bool)
        b = np.zeros((8, 4, 4), bool)
        a[1, 2, 2] = True
        b[4, 2, 2] = True
        assert hd95(a, b, spacing=(2.0, 1.0, 1.0)) == pytest.approx(6.0)


def full_volume_metrics(pred, truth, spacing=(1.0, 1.0, 1.0)):
    """The evaluate_case dict computed on the full, uncropped region masks."""
    out = {}
    for region in REGIONS:
        p = region_mask(pred, region)
        t = region_mask(truth, region)
        out[region.name] = {
            "dice": dice(p, t),
            "hd95": hd95(p, t, spacing),
            "sensitivity": sensitivity(p, t),
            "specificity": specificity(p, t),
        }
    return out


def nested_blob(shape, lo, hi):
    """Edema box [lo, hi) around a core box around one enhancing voxel."""
    mask = np.zeros(shape, dtype=np.uint8)
    lo, hi = np.array(lo), np.array(hi)
    mask[tuple(slice(a, b) for a, b in zip(lo, hi))] = 2
    mid = (lo + hi) // 2
    mask[tuple(slice(a, b) for a, b in zip((lo + mid) // 2, mid + 1))] = 1
    mask[tuple(mid)] = 4
    return mask


class TestEvaluateCaseCrop:
    """evaluate_case scores the joint bounding box; every result must equal
    the full-volume metrics exactly."""

    def test_tumor_touching_face_and_corner(self):
        shape = (10, 9, 8)
        truth = nested_blob(shape, (0, 0, 0), (4, 5, 3))  # corner voxel (0, 0, 0)
        pred = nested_blob(shape, (1, 2, 0), (5, 9, 4))   # faces y = 8 and z = 0
        got = evaluate_case(pred, truth)
        assert got == full_volume_metrics(pred, truth)
        assert got["WT"]["hd95"] > 0

    @pytest.mark.parametrize("empty_side", ["pred", "truth"])
    def test_one_empty_mask(self, empty_side):
        shape = (9, 9, 9)
        tumor = nested_blob(shape, (2, 3, 1), (6, 7, 4))
        empty = np.zeros(shape, dtype=np.uint8)
        pred, truth = (empty, tumor) if empty_side == "pred" else (tumor, empty)
        got = evaluate_case(pred, truth)
        assert got == full_volume_metrics(pred, truth)
        wt = np.count_nonzero(tumor)
        assert got["WT"]["hd95"] == HD95_EMPTY_SENTINEL
        # the negatives outside the box count toward specificity
        want_spec = 1.0 if empty_side == "pred" else (tumor.size - wt) / tumor.size
        assert got["WT"]["specificity"] == want_spec

    def test_both_masks_all_zeros(self):
        z = np.zeros((5, 6, 7), dtype=np.uint8)
        got = evaluate_case(z, z)
        assert got == full_volume_metrics(z, z)
        for region in REGIONS:
            assert got[region.name] == {
                "dice": 1.0, "hd95": 0.0, "sensitivity": 1.0, "specificity": 1.0,
            }

    def test_anisotropic_spacing(self):
        shape = (11, 10, 9)
        truth = nested_blob(shape, (1, 2, 3), (7, 8, 8))
        pred = nested_blob(shape, (3, 1, 2), (10, 6, 9))
        spacing = (0.7, 2.5, 1.3)
        got = evaluate_case(pred, truth, spacing=spacing)
        assert got == full_volume_metrics(pred, truth, spacing)
        assert got != evaluate_case(pred, truth)

    def test_box_inside_volume_against_all_pairs_oracle(self):
        shape = (12, 12, 12)
        truth = nested_blob(shape, (2, 3, 4), (7, 8, 8))
        pred = nested_blob(shape, (3, 3, 2), (9, 7, 7))
        spacing = (1.0, 1.5, 0.8)
        got = evaluate_case(pred, truth, spacing=spacing)
        assert got == full_volume_metrics(pred, truth, spacing)
        for region in REGIONS:
            ref = reference.brute_force_hd95(
                region_mask(pred, region), region_mask(truth, region), spacing
            )
            assert abs(got[region.name]["hd95"] - ref) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            evaluate_case(np.zeros((2, 2, 1)), np.zeros((2, 2, 2)))


def edt_hd95(pred, truth, spacing):
    """HD95 by two Euclidean distance transforms over the whole, uncropped
    volume: a computation independent of the crop and the k-d tree."""
    ps, ts = surface_voxels(pred), surface_voxels(truth)
    if not ps.any() and not ts.any():
        return 0.0
    if not ps.any() or not ts.any():
        return HD95_EMPTY_SENTINEL
    d_to_truth = ndimage.distance_transform_edt(~ts, sampling=spacing)[ps]
    d_to_pred = ndimage.distance_transform_edt(~ps, sampling=spacing)[ts]
    return float(np.percentile(np.concatenate([d_to_truth, d_to_pred]), 95))


def shells(shape, centre, radii):
    """Nested spheres labelled 2 / 1 / 4 from the outside in, in the
    Fortran order a NIfTI read gives."""
    grid = np.ogrid[tuple(slice(0, n) for n in shape)]
    d2 = sum((g - c) ** 2 for g, c in zip(grid, centre))
    mask = np.zeros(shape, dtype=np.uint8, order="F")
    for label, r in zip((2, 1, 4), radii):
        mask[d2 <= r * r] = label
    return mask


class TestHd95NearestSurface:
    """hd95 crops to its region's own box and queries a k-d tree of surface
    voxels; it must give the all-pairs and the distance-transform values."""

    @pytest.mark.parametrize("spacing", [(1.5, 1.0, 0.5), (0.7, 2.5, 1.3)])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_masks_on_the_faces_against_all_pairs_oracle(self, axis, spacing):
        # a on the low face of ``axis``, b on the high one; the other two
        # axes are filled edge to edge in places, so the crop's faces are
        # the array's faces and surface voxels lie on both
        for _ in range(3):
            a = np.zeros((7, 6, 8), dtype=bool)
            b = np.zeros((7, 6, 8), dtype=bool)
            a[:3] = rng.random((3, 6, 8)) < 0.4
            b[4:] = rng.random((3, 6, 8)) < 0.4
            a[0, 0, 0] = b[-1, -1, -1] = True
            a, b = np.moveaxis(a, 0, axis), np.moveaxis(b, 0, axis)
            ref = reference.brute_force_hd95(a, b, spacing)
            assert abs(hd95(a, b, spacing) - ref) < 1e-9
            assert abs(hd95(b, a, spacing) - ref) < 1e-9

    def test_region_nested_far_inside_the_other(self):
        # a 2x2x3 core deep inside a box that fills the array on four faces
        outer = np.zeros((18, 16, 15), dtype=bool)
        outer[:, 1:15, :] = True
        inner = np.zeros_like(outer)
        inner[8:10, 7:9, 6:9] = True
        spacing = (1.2, 0.9, 2.0)
        ref = reference.brute_force_hd95(outer, inner, spacing)
        assert ref > 8.0
        assert abs(hd95(outer, inner, spacing) - ref) < 1e-9
        assert abs(hd95(inner, outer, spacing) - ref) < 1e-9

    def test_brats_sized_shells_against_full_volume_transforms(self):
        # a shifted, resized prediction on 240x240x155 volumes; at unit
        # spacing both ways give every distance as the correctly rounded
        # root of an integer
        shape = (240, 240, 155)
        pred = shells(shape, (121, 123, 76), (35, 20, 8))
        truth = shells(shape, (118, 123, 76), (36, 19, 9))
        got = evaluate_case(pred, truth)
        for region in REGIONS:
            p, t = region_mask(pred, region), region_mask(truth, region)
            assert got[region.name] == {
                "dice": dice(p, t),
                "hd95": edt_hd95(p, t, (1.0, 1.0, 1.0)),
                "sensitivity": sensitivity(p, t),
                "specificity": specificity(p, t),
            }
            assert 0 < got[region.name]["hd95"] < 5

    def test_cli_import_leaves_scipy_spatial_unloaded(self):
        # the k-d tree and ndimage are imported inside the functions that use
        # them and erf is numpy's own, so importing the CLI loads no scipy
        # module at all: no command pays for scipy at start-up. Likewise only
        # selftest imports the oracle table, and only TTA the thread pool.
        src = os.path.dirname(os.path.dirname(bitrunet.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = ("import sys, bitrunet.cli; print(bitrunet.__file__); "
                 "print([m for m in sys.modules if m.startswith('scipy')]); "
                 "print([m in sys.modules for m in "
                 "('bitrunet.reference', 'concurrent.futures')])")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()
        assert out == [bitrunet.__file__, "[]", "[False, False]"]


def _faces_touched(mask):
    return [bool(np.take(mask, i, axis=a).any()) for a in range(3) for i in (0, -1)]


class TestSurfaceVoxelsOracle:
    """The padded-box erosion against the direct definition, where the
    volume's boundary counts as background."""

    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 5), (2, 1, 3), (2, 2, 2),
                                       (1, 7, 4), (3, 5, 7), (9, 2, 5)])
    def test_full_and_random_masks(self, shape, dtype):
        full = np.ones(shape, dtype=dtype)
        assert np.array_equal(surface_voxels(full), reference.brute_force_surface(full))
        assert surface_voxels(full).all() == (min(shape) <= 2)
        for density in (0.3, 0.8):
            m = (rng.random(shape) < density).astype(dtype)
            got = surface_voxels(m)
            assert got.dtype == bool and got.shape == shape
            assert np.array_equal(got, reference.brute_force_surface(m))

    def test_mask_touching_every_face(self):
        m = np.zeros((7, 6, 5), dtype=np.uint8)
        m[:, 1:5, 1:4] = 1  # the two x faces
        m[2:5, :, 2] = 1    # the two y faces
        m[3, 3, :] = 1      # the two z faces
        assert all(_faces_touched(m))
        got = surface_voxels(m)
        assert np.array_equal(got, reference.brute_force_surface(m))
        assert got[0, 2, 2] and got[6, 2, 2] and not got[3, 2, 2]

    def test_strided_view_of_a_larger_array(self):
        m = rng.random((9, 8, 10)) < 0.7
        view = m[1:8, ::2, 9:0:-3]
        assert np.array_equal(surface_voxels(view), reference.brute_force_surface(view))


def _isin_evaluate_case(pred_mask, truth_mask, spacing):
    """evaluate_case as formulated before its counts were shared: np.isin
    region masks, scipy.ndimage erosion, median-split k-d trees, and Dice,
    sensitivity and specificity each counted on their own."""
    from scipy.spatial import KDTree

    cross = ndimage.generate_binary_structure(3, 1)

    def surface(m):
        return m & ~ndimage.binary_erosion(m, structure=cross, border_value=0)

    def box_of(nonzero):
        box = []
        for axis in range(3):
            hit = np.flatnonzero(nonzero.any(axis=tuple(a for a in range(3) if a != axis)))
            if hit.size == 0:
                return (slice(0, 0),) * 3
            box.append(slice(hit[0], hit[-1] + 1))
        return tuple(box)

    def old_hd95(p, t):
        box = box_of(p | t)
        scale = np.asarray(spacing, dtype=np.float64)
        ps = np.argwhere(surface(p[box])) * scale
        ts = np.argwhere(surface(t[box])) * scale
        if len(ps) == 0 and len(ts) == 0:
            return 0.0
        if len(ps) == 0 or len(ts) == 0:
            return HD95_EMPTY_SENTINEL
        d = np.concatenate([KDTree(ts).query(ps)[0], KDTree(ps).query(ts)[0]])
        return float(np.percentile(d, 95))

    box = box_of((pred_mask != 0) | (truth_mask != 0))
    out = {}
    for region in REGIONS:
        p = np.isin(pred_mask[box], sorted(region.labels))
        t = np.isin(truth_mask[box], sorted(region.labels))
        n_p, n_t = int(p.sum()), int(t.sum())
        tp = int((p & t).sum())
        fp = int((p & ~t).sum())
        fn = int((~p & t).sum())
        tn = pred_mask.size - tp - fp - fn
        out[region.name] = {
            "dice": 1.0 if n_p + n_t == 0 else 2.0 * tp / (n_p + n_t),
            "hd95": old_hd95(p, t),
            "sensitivity": 1.0 if tp + fn == 0 else tp / (tp + fn),
            "specificity": 1.0 if tn + fp == 0 else tn / (tn + fp),
        }
    return out


class TestEvaluateCaseFormulation:
    """Counting once, comparing labels, the numpy erosion and sliding-midpoint
    trees change no bit of any score on BraTS-sized cases."""

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (1.0, 1.2, 0.8)])
    def test_brats_sized_shells_equal_the_isin_formulation(self, spacing):
        shape = (240, 240, 155)
        truth = shells(shape, (118, 123, 76), (36, 19, 9))
        pairs = [
            (shells(shape, (121, 123, 76), (35, 20, 8)), truth),  # shifted, resized
            (shells(shape, (118, 120, 78), (36, 19, 9)), truth),  # pure shift
            (shells(shape, (118, 123, 74), (36, 19, 0)), truth),  # no enhancing tumor
        ]
        pairs[2][0][pairs[2][0] == 4] = 1
        for pred, truth in pairs:
            got = evaluate_case(pred, truth, spacing=spacing)
            assert got == _isin_evaluate_case(pred, truth, spacing)
            for scores in got.values():
                for value in scores.values():
                    assert type(value) is float


class TestCheckLabels:
    """One slab-wise pass checks the labels and projects the nonzero voxels,
    as a flat pass plus the joint mask's ``any`` projections did."""

    @staticmethod
    def _layouts(mask):
        big = np.zeros((mask.shape[0] + 3, mask.shape[1] * 2, mask.shape[2]), mask.dtype)
        view = big[2 : 2 + mask.shape[0], ::2]
        view[...] = mask
        return {"C": np.ascontiguousarray(mask), "F": np.asfortranarray(mask),
                "strided": view, "transposed": np.asfortranarray(mask).transpose(1, 0, 2)}

    @pytest.mark.parametrize("shape", [(70, 80, 90), (3, 1, 5), (1, 1, 1), (33, 2, 200)])
    def test_projections_equal_the_full_volume_anys(self, shape):
        mask = rng.choice([0, 1, 2, 4], shape, p=[0.97, 0.01, 0.01, 0.01]).astype(np.uint8)
        zero = np.zeros(shape, np.uint8)
        for blank in (mask, zero):
            for layout, m in self._layouts(blank).items():
                got = check_labels(m, "m")
                want = [(m != 0).any(axis=tuple(a for a in range(3) if a != axis))
                        for axis in range(3)]
                assert len(got) == 3, layout
                for g, w in zip(got, want):
                    assert g.dtype == bool and np.array_equal(g, w), layout

    def test_four_dimensional_mask(self):
        mask = np.zeros((6, 5, 4, 2), np.int16)
        mask[2, 3, 1, 1] = 4
        got = check_labels(mask, "m")
        assert [np.flatnonzero(g).tolist() for g in got] == [[2], [3], [1], [1]]

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
    def test_first_bad_label_in_memory_order(self, dtype):
        # 3 comes first in C order, 5 in Fortran order, and in both
        # layouts they lie in different slabs
        base = rng.choice([0, 1, 2, 4], (40, 50, 160)).astype(dtype)
        base[1, 40, 150] = 3
        base[35, 2, 10] = 5
        wants = set()
        for layout, m in self._layouts(base).items():
            flat = np.ravel(m, order="K")
            want = int(flat[~np.isin(flat, [0, 1, 2, 4])][0])
            wants.add(want)
            with pytest.raises(ValueError, match=rf"^m\.nii: label {want} is not one of"):
                check_labels(m, "m.nii")
        assert wants == {3, 5}


class TestSummarize:
    def test_single_case(self):
        s = summarize([0.7])
        assert s["mean"] == s["median"] == s["p25"] == s["p75"] == 0.7
        assert s["sd"] == 0.0

    def test_two_values(self):
        s = summarize([0.0, 1.0])
        assert s["median"] == 0.5
        assert s["mean"] == 0.5

    def test_five_known_values(self):
        vals = [0.1, 0.2, 0.4, 0.8, 1.0]
        s = summarize(vals)
        assert s["mean"] == pytest.approx(0.5)
        assert s["median"] == 0.4
        assert s["p25"] == 0.2
        assert s["p75"] == 0.8
        assert s["sd"] == pytest.approx(np.std(vals))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestReport:
    def test_evaluate_case_and_format(self):
        mask = rng.choice([0, 1, 2, 4], (8, 8, 8)).astype(np.uint8)
        results = {"case1": evaluate_case(mask, mask)}
        for region in REGIONS:
            m = results["case1"][region.name]
            assert m["dice"] == 1.0
            assert m["hd95"] == 0.0
        report = format_report(results)
        assert report.startswith("case\tregion\tdice")
        assert "summary\tWT\tdice" in report

    @pytest.mark.parametrize("bad", [3, 5, -1, 1.5])
    def test_evaluate_case_rejects_label_outside_vocabulary(self, bad):
        # the bad voxel sits past the first counting chunk of the volume
        good = rng.choice([0, 1, 2, 4], (70, 70, 70)).astype(np.float32)
        bad_mask = good.copy()
        bad_mask[60, 61, 62] = bad
        with pytest.raises(ValueError, match=rf"^truth: label {bad} is not"):
            evaluate_case(good, bad_mask)
        with pytest.raises(ValueError, match=rf"^p\.nii: label {bad} is not"):
            evaluate_case(bad_mask, good, sources=("p.nii", "t.nii"))
