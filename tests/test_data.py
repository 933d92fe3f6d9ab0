import gzip
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

from biasloss import data
from biasloss.data import (AugmentSpec, Dataset, FormatError, batches,
                           read_cifar10, read_idx)


def make_idx_image_bytes():
    """Fixture built independently of the library writer: 2 images, 2x2."""
    pixels = bytes([0, 64, 128, 255, 255, 1, 2, 3])
    return struct.pack(">IIII", 0x00000803, 2, 2, 2) + pixels


def make_idx_label_bytes():
    return struct.pack(">II", 0x00000801, 2) + bytes([3, 7])


def damaged_gzip(raw, how):
    """raw gzipped, then cut in half ("cut") or with 40 bytes of its
    deflate stream inverted ("corrupt"); or raw as it is ("not_gzip")."""
    if how == "not_gzip":
        return raw
    gz = gzip.compress(raw, mtime=0)
    if how == "cut":
        return gz[:len(gz) // 2]
    return gz[:20] + bytes(b ^ 0xFF for b in gz[20:60]) + gz[60:]


def make_cifar_record():
    """One record: label 7 then 3072 pixel bytes with a known pattern."""
    pixels = bytes((i * 7 + 13) % 256 for i in range(3072))
    return bytes([7]) + pixels


class TestIdxReader:
    def test_fixture_pixels_roundtrip(self, tmp_path):
        p = tmp_path / "imgs"
        p.write_bytes(make_idx_image_bytes())
        images = read_idx(p)
        assert images.shape == (2, 1, 2, 2)
        np.testing.assert_allclose(
            images[0, 0], np.array([[0, 64], [128, 255]]) / 255.0, rtol=1e-6)
        np.testing.assert_allclose(
            images[1, 0], np.array([[255, 1], [2, 3]]) / 255.0, rtol=1e-6)

    def test_labels(self, tmp_path):
        p = tmp_path / "labels"
        p.write_bytes(make_idx_label_bytes())
        np.testing.assert_array_equal(read_idx(p), [3, 7])

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">I", 0) + b"xxxx")
        with pytest.raises(FormatError):
            read_idx(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(make_idx_image_bytes()[:-3])
        with pytest.raises(EOFError):  # TruncatedFileError is also an EOFError
            read_idx(p)
        with pytest.raises(data.TruncatedFileError):
            read_idx(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "long"
        p.write_bytes(make_idx_image_bytes() + b"x")
        with pytest.raises(FormatError):
            read_idx(p)

    def test_reserialization_bit_exact(self, tmp_path):
        p = tmp_path / "imgs"
        raw = make_idx_image_bytes()
        p.write_bytes(raw)
        images = read_idx(p)
        out = tmp_path / "again"
        data.write_idx_images(out, images)
        assert out.read_bytes() == raw
        lp = tmp_path / "labels"
        lraw = make_idx_label_bytes()
        lp.write_bytes(lraw)
        lout = tmp_path / "lagain"
        data.write_idx_labels(lout, read_idx(lp))
        assert lout.read_bytes() == lraw

    def test_gzip_supported(self, tmp_path):
        p = tmp_path / "imgs.gz"
        with gzip.open(p, "wb") as f:
            f.write(make_idx_image_bytes())
        assert read_idx(p).shape == (2, 1, 2, 2)

    @pytest.mark.parametrize("how,error,msg", [
        ("cut", data.TruncatedFileError, "ended before"),
        ("corrupt", FormatError, "corrupt gzip stream"),
        ("not_gzip", FormatError, "Not a gzipped file")])
    def test_damaged_gzip(self, tmp_path, how, error, msg):
        images = data.make_synthetic("mnist", 8, seed=0).images
        data.write_idx_images(tmp_path / "imgs", images)
        p = tmp_path / "imgs.gz"
        p.write_bytes(damaged_gzip((tmp_path / "imgs").read_bytes(), how))
        with pytest.raises(error, match=msg):
            read_idx(p)


class TestCifarReader:
    def test_fixture_roundtrip(self, tmp_path):
        p = tmp_path / "batch.bin"
        raw = make_cifar_record()
        p.write_bytes(raw)
        images, labels = read_cifar10(p)
        assert images.shape == (1, 3, 32, 32)
        assert labels[0] == 7
        expect = np.frombuffer(raw[1:], dtype=np.uint8).reshape(3, 32, 32)
        np.testing.assert_allclose(images[0], expect / 255.0, rtol=1e-6)
        out = tmp_path / "again.bin"
        data.write_cifar10(out, images, labels)
        assert out.read_bytes() == raw

    def test_partial_record_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(bytes(3072))
        with pytest.raises(FormatError):
            read_cifar10(p)

    def test_multiple_records(self, tmp_path):
        p = tmp_path / "two.bin"
        p.write_bytes(make_cifar_record() * 2)
        images, labels = read_cifar10(p)
        assert images.shape == (2, 3, 32, 32)


class TestDataset:
    def test_label_range_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1, 2, 2), np.float32),
                    np.array([0, 10]), "x", "train")

    @pytest.mark.parametrize("shape", [(2, 1, 0, 0), (2, 1, 0, 3),
                                       (2, 0, 2, 2)])
    def test_images_without_pixels_rejected(self, shape):
        with pytest.raises(FormatError, match="no pixels"):
            Dataset(np.zeros(shape, np.float32), np.array([0, 1]), "x",
                    "train")

    def test_take_subset(self):
        ds = data.make_synthetic("mnist", 20, seed=0)
        sub = ds.take(5)
        assert len(sub) == 5
        np.testing.assert_array_equal(sub.images, ds.images[:5])
        assert ds.take(None) is ds


def assembled(ds, spec, seed=0, epoch=0, batch_size=None):
    """Each image of ds as batches assembles it, in dataset order."""
    out = np.empty_like(ds.images)
    for b in batches(ds, batch_size or len(ds), seed=seed, epoch=epoch,
                     augment_spec=spec):
        out[b.indices] = b.images
    return out


class TestAugment:
    """Flip, rotation and normalization as batches apply them."""

    def spec(self):
        return AugmentSpec(hflip=True, rotate_deg=(-15.0, 15.0),
                           normalize=None)

    def test_zero_rotation_identity(self):
        # rotate at 0 degrees is not the identity next to an inf pixel
        # (inf * 0 weights give NaN), so an angle of 0 must not rotate
        img = np.random.default_rng(0).random((3, 6, 6)).astype(np.float32)
        img[0, 2, 3], img[1, 5, 5], img[2, 0, 0] = np.inf, -np.inf, np.nan
        assert np.isnan(data.rotate(img[None], [0.0])).sum() > 1
        spec = AugmentSpec(hflip=True, rotate_deg=(0.0, 0.0), normalize=None)
        ds = Dataset(np.stack([img] * 12), np.zeros(12, np.int64), "x",
                     "train")
        flips = 0
        for out in assembled(ds, spec):
            flipped = out.tobytes() != img.tobytes()
            flips += flipped
            if flipped:
                assert out.tobytes() == img[:, :, ::-1].tobytes()
        assert 0 < flips < 12

    def test_normalization_applied(self):
        img = np.full((2, 4, 4), 0.5, dtype=np.float32)
        spec = AugmentSpec(normalize=((0.25, 0.5), (0.5, 1.0)))
        ds = Dataset(img[None], np.array([0]), "x", "train")
        (out,) = (b.images[0] for b in batches(ds, 1, augment_spec=spec))
        np.testing.assert_allclose(out[0], 0.5, rtol=1e-6)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-7)

    @pytest.mark.parametrize("normalize", [((0.1, 0.2), (0.3, 0.4)),
                                           ((0.1,), (0.3, 0.4))])
    def test_normalize_channel_mismatch_rejected(self, normalize):
        ds = Dataset(np.zeros((1, 1, 28, 28), np.float32), np.array([0]),
                     "x", "train")
        spec = AugmentSpec(normalize=normalize)
        with pytest.raises(FormatError, match="channels"):
            list(batches(ds, 1, augment_spec=spec))

    def test_default_augment_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            data.default_augment("svhn")

    def test_flip_involution(self):
        # a flip-only spec mirrors some images; assembling the assembled
        # images again with the same keys restores every original
        ds = data.make_synthetic("cifar10", 16, seed=1)
        spec = AugmentSpec(hflip=True, rotate_deg=(0.0, 0.0), normalize=None)
        once = assembled(ds, spec, seed=4, epoch=2, batch_size=5)
        mirrored = [not np.array_equal(o, i) for o, i in zip(once, ds.images)]
        assert 0 < sum(mirrored) < len(ds)
        for o, i, m in zip(once, ds.images, mirrored):
            np.testing.assert_array_equal(o, i[:, :, ::-1] if m else i)
        twice = assembled(Dataset(once, ds.labels, ds.name, ds.split), spec,
                          seed=4, epoch=2, batch_size=5)
        np.testing.assert_array_equal(twice, ds.images)

    def test_shape_preserved(self):
        for dtype in (np.float32, np.float64):
            images = np.random.default_rng(2).random((5, 3, 9, 7))
            ds = Dataset(images.astype(dtype), np.arange(5), "x", "train")
            for b in batches(ds, 3, seed=1, epoch=4,
                             augment_spec=self.spec()):
                assert b.images.shape == (len(b.indices), 3, 9, 7)
                assert b.images.dtype == dtype
                assert b.images.flags.c_contiguous

    def test_deterministic_across_processes(self, capsys):
        code = (
            "import hashlib, numpy as np\n"
            "from biasloss.data import AugmentSpec, Dataset, batches\n"
            "images = np.arange(12 * 64, dtype=np.float32)"
            ".reshape(12, 1, 8, 8) / 768.0\n"
            "ds = Dataset(images, np.zeros(12, np.int64), 'x', 'train')\n"
            "spec = AugmentSpec(hflip=True, rotate_deg=(-15.0, 15.0))\n"
            "h = hashlib.sha256()\n"
            "for b in batches(ds, 5, seed=42, epoch=2, augment_spec=spec):\n"
            "    h.update(b.indices.tobytes() + b.images.tobytes())\n"
            "print(h.hexdigest())\n")
        exec(code, {})
        here = capsys.readouterr().out
        got = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, check=True)
        assert got.stdout == here and len(here.strip()) == 64


class TestBatches:
    def test_partial_batch_kept(self):
        ds = data.make_synthetic("mnist", 10, seed=0)
        sizes = [len(b.labels) for b in batches(ds, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 2]

    def test_same_seed_epoch_identical(self):
        ds = data.make_synthetic("mnist", 24, seed=0)
        o1 = [b.indices.tolist() for b in batches(ds, 8, seed=3, epoch=1)]
        o2 = [b.indices.tolist() for b in batches(ds, 8, seed=3, epoch=1)]
        assert o1 == o2

    def test_epochs_differ(self):
        ds = data.make_synthetic("mnist", 1000, seed=0)
        p1 = np.concatenate([b.indices for b in batches(ds, 1000, seed=3,
                                                        epoch=0)])
        p2 = np.concatenate([b.indices for b in batches(ds, 1000, seed=3,
                                                        epoch=1)])
        # permutation distance: essentially no fixed alignment between epochs
        assert (p1 != p2).sum() > 900

    def test_prefetch_stream_identical(self):
        ds = data.make_synthetic("mnist", 40, seed=0)
        spec = AugmentSpec(hflip=True, rotate_deg=(-10, 10),
                           normalize=((0.5,), (0.5,)))
        plain = list(batches(ds, 16, seed=1, epoch=4, augment_spec=spec))
        pre = list(batches(ds, 16, seed=1, epoch=4, augment_spec=spec,
                           prefetch=True))
        assert len(plain) == len(pre)
        for a, b in zip(plain, pre):
            np.testing.assert_array_equal(a.images, b.images)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_prefetch_worker_error_reaches_consumer(self, monkeypatch):
        ds = data.make_synthetic("mnist", 40, seed=0)
        assemble = data._assemble
        calls = []

        def fail_second(*args):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("bad batch")
            return assemble(*args)

        monkeypatch.setattr(data, "_assemble", fail_second)
        outcome = []

        def consume():
            try:
                outcome.append(len(list(batches(ds, 8, prefetch=True))))
            except RuntimeError as e:
                outcome.append(e)

        t = threading.Thread(target=consume, daemon=True)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive(), "consumer still blocked on the queue"
        assert isinstance(outcome[0], RuntimeError)
        assert "bad batch" in str(outcome[0])

    def test_abandoned_prefetch_iterators_stop_their_workers(self):
        ds = data.make_synthetic("mnist", 64, seed=0)
        before = set(threading.enumerate())
        for _ in range(3):
            for b in batches(ds, 4, prefetch=True):
                break
        it = batches(ds, 4, prefetch=True)
        next(it)
        it.close()
        assert set(threading.enumerate()) - before == set()

    def test_batch_size_validation(self):
        ds = data.make_synthetic("mnist", 4, seed=0)
        with pytest.raises(ValueError):
            list(batches(ds, 0))


ASSEMBLY_SPECS = {
    "none": ("mnist", AugmentSpec()),
    "normalize_mnist": ("mnist", AugmentSpec(
        normalize=data.default_augment("mnist").normalize)),
    "normalize_cifar": ("cifar10", AugmentSpec(
        normalize=data.default_augment("cifar10").normalize)),
    "flip_only": ("cifar10", AugmentSpec(hflip=True, rotate_deg=(0.0, 0.0),
                                         normalize=None)),
    "default_rotate_mnist": ("mnist", data.default_augment("mnist")),
    "default_rotate_cifar": ("cifar10", data.default_augment("cifar10")),
}


def normalized(images, normalize):
    """(images - mean) / std per channel, in the images' dtype."""
    if normalize is None:
        return images
    mean, std = (np.asarray(t, images.dtype).reshape(-1, 1, 1)
                 for t in normalize)
    return (images - mean) / std


class TestAssembly:
    """An image's bytes depend on (seed, epoch, index) only: batches of any
    size, with prefetch on or off, hold each image as a batch of one does.
    """

    @pytest.mark.parametrize("prefetch", [False, True])
    def test_default_spec_yields_raw_images(self, prefetch):
        ds = data.make_synthetic("cifar10", 21, seed=2)
        for b in batches(ds, 8, seed=5, prefetch=prefetch):
            assert b.images.tobytes() == ds.images[b.indices].tobytes()

    @pytest.mark.parametrize("prefetch", [False, True])
    @pytest.mark.parametrize("name", list(ASSEMBLY_SPECS))
    def test_image_bytes_do_not_depend_on_batching(self, name, prefetch):
        kind, spec = ASSEMBLY_SPECS[name]
        ds = data.make_synthetic(kind, 45, seed=2)
        ones = {int(b.indices[0]): b.images[0] for b in batches(
            ds, 1, seed=5, epoch=3, augment_spec=spec)}
        assert sorted(ones) == list(range(45))
        # a batch of 20 spans two of rotate's 16-image chunks
        for size in (1, 7, 20):
            got = list(batches(ds, size, seed=5, epoch=3, augment_spec=spec,
                               prefetch=prefetch))
            sizes = [len(b.labels) for b in got]
            assert sizes[:-1] == [size] * (len(got) - 1) and sum(sizes) == 45
            for b in got:
                want = np.stack([ones[int(i)] for i in b.indices])
                assert b.images.dtype == want.dtype == np.float32
                assert b.images.shape == want.shape
                assert b.images.tobytes() == want.tobytes()
                np.testing.assert_array_equal(b.labels, ds.labels[b.indices])

    @pytest.mark.parametrize("name", ["normalize_mnist", "flip_only",
                                      "default_rotate_cifar"])
    def test_batch_of_one_is_the_drawn_transform(self, name):
        # the oracle above, spelled out: flip and rotate by the image's own
        # draw, skip an angle of 0, then normalize
        kind, spec = ASSEMBLY_SPECS[name]
        ds = data.make_synthetic(kind, 6, seed=2)
        for b in batches(ds, 1, seed=5, epoch=3, augment_spec=spec):
            i = int(b.indices[0])
            flip, angle = data._draw(spec, (3, i), 5)
            want = ds.images[i:i + 1]
            if flip:
                want = want[:, :, :, ::-1]
            if angle != 0.0:
                want = data.rotate(want, [angle])
            want = normalized(want, spec.normalize)
            assert b.images.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["mnist", "cifar10"])
    def test_normalize_only_builds_no_generator(self, kind, monkeypatch):
        ds = data.make_synthetic(kind, 12, seed=0)
        rng_for, domains = data._rng_for, []

        def counting(seed, domain, *key):
            domains.append(domain)
            return rng_for(seed, domain, *key)

        monkeypatch.setattr(data, "_rng_for", counting)
        spec = AugmentSpec(normalize=data.default_augment(kind).normalize)
        list(batches(ds, 5, seed=1, augment_spec=spec))
        assert domains == [data._DOMAIN_SHUFFLE]
        domains.clear()
        list(batches(ds, 5, seed=1, augment_spec=data.default_augment(kind)))
        assert domains.count(data._DOMAIN_AUGMENT) == len(ds)

    @pytest.mark.parametrize("spec", [
        AugmentSpec(normalize=((0.1, 0.2), (0.3, 0.4))),
        AugmentSpec(rotate_deg=(-15.0, 15.0),
                    normalize=((0.1, 0.2), (0.3, 0.4))),
    ], ids=["normalize_only", "rotate"])
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_channel_mismatch_rejected(self, spec, prefetch):
        ds = data.make_synthetic("mnist", 6, seed=0)
        with pytest.raises(FormatError, match="channels"):
            list(batches(ds, 4, augment_spec=spec, prefetch=prefetch))


class TestChannelStats:
    def test_checked_in_cifar_constants(self):
        from conftest import require_dataset
        root = require_dataset("cifar10")
        ds = data.load_cifar10(root, "train")
        imgs = np.asarray(ds.images, dtype=np.float64)
        mean, std = imgs.mean(axis=(0, 2, 3)), imgs.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, data.CIFAR10_MEAN, atol=2e-3)
        np.testing.assert_allclose(std, data.CIFAR10_STD, atol=2e-3)


class TestSynthetic:
    def test_learnable_structure(self):
        # template classes must be well separated: nearest-template
        # classification of clean means should be near perfect
        ds = data.make_synthetic("mnist", 200, seed=0)
        means = np.stack([ds.images[ds.labels == k].mean(axis=0).ravel()
                          for k in range(10)])
        sims = means @ means.T
        assert (np.argmax(sims, axis=1) == np.arange(10)).all()

    def test_deterministic(self):
        a = data.make_synthetic("cifar10", 16, seed=5)
        b = data.make_synthetic("cifar10", 16, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
