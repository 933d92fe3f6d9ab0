"""Dataset ingestion, deterministic augmentation and batching.

Readers parse the MNIST IDX and CIFAR-10 binary formats bit-exactly;
matching writers exist so fixtures round-trip. All augmentation randomness
comes from counter-based streams keyed by (seed, epoch, sample index), so
an epoch's pixel stream is identical no matter which thread produces it or
whether prefetching is on. A sample's stream is built only when its spec
draws from it (a random flip or a rotation range), so evaluation batches
build none.

A batch is assembled in two steps: each image is flipped and rotated on
its own, only when the spec flips or rotates at all, and the stacked batch
is then normalized once. Normalization is elementwise, so the batch holds
the bytes of stacking per-image ``augment`` outputs.
"""

from __future__ import annotations

import gzip
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
CIFAR_RECORD = 3073  # 1 label byte + 3*32*32 pixel bytes

MNIST_MEAN, MNIST_STD = (0.1307,), (0.3081,)
CIFAR10_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR10_STD = (0.2470, 0.2435, 0.2616)

# spawn-key domains for the counter-based generators
_DOMAIN_SHUFFLE = 0xA1
_DOMAIN_AUGMENT = 0xA2


class FormatError(ValueError):
    """Raised when a dataset file does not match its documented format."""


class TruncatedFileError(FormatError, EOFError):
    """Raised when a dataset file ends before its declared payload."""


class EmptyDatasetError(FormatError):
    """Raised when a dataset to be read holds no samples."""


@dataclass
class Dataset:
    images: np.ndarray  # [N, c, h, w] float32 in [0, 1]
    labels: np.ndarray  # [N] int64
    name: str
    split: str
    num_classes: int = 10

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[0] != self.labels.shape[0]:
            raise FormatError(f"{self.name} {self.split}: images must be "
                              f"[N,c,h,w] aligned with labels, got "
                              f"{self.images.shape} and "
                              f"{self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise FormatError(f"{self.name} {self.split}: labels must lie "
                              f"in [0, {self.num_classes})")

    def __len__(self):
        return self.images.shape[0]

    def take(self, n):
        """First-n deterministic subset (None means everything)."""
        if n is None or n >= len(self):
            return self
        return Dataset(self.images[:n], self.labels[:n], self.name,
                       self.split, self.num_classes)


def require_samples(ds):
    """ds; EmptyDatasetError, naming its dataset and split, if it is empty."""
    if not len(ds):
        raise EmptyDatasetError(f"{ds.name} {ds.split} dataset has no "
                                "samples")
    return ds


@dataclass
class AugmentSpec:
    hflip: bool = True
    rotate_deg: tuple = (-15.0, 15.0)
    normalize: tuple = None  # ((mean per channel), (std per channel))


def _open_maybe_gz(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_idx(path):
    """Parse one IDX file: images -> float32 [N,1,h,w] in [0,1],
    labels -> int64 [N]. Big-endian magic selects which."""
    with _open_maybe_gz(path) as f:
        raw = f.read()
    if len(raw) < 4:
        raise TruncatedFileError(f"{path}: truncated header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic == IDX_MAGIC_LABELS:
        if len(raw) < 8:
            raise TruncatedFileError(f"{path}: truncated header")
        (n,) = struct.unpack(">I", raw[4:8])
        body = raw[8:]
        if len(body) < n:
            raise TruncatedFileError(
                f"{path}: expected {n} label bytes, got {len(body)}")
        if len(body) > n:
            raise FormatError(f"{path}: {len(body) - n} trailing bytes")
        return np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    if magic == IDX_MAGIC_IMAGES:
        if len(raw) < 16:
            raise TruncatedFileError(f"{path}: truncated header")
        n, h, w = struct.unpack(">III", raw[4:16])
        body = raw[16:]
        if len(body) < n * h * w:
            raise TruncatedFileError(
                f"{path}: expected {n * h * w} pixel bytes, got {len(body)}")
        if len(body) > n * h * w:
            raise FormatError(f"{path}: trailing bytes after pixel data")
        pixels = np.frombuffer(body, dtype=np.uint8).reshape(n, 1, h, w)
        return pixels.astype(np.float32) / np.float32(255.0)
    raise FormatError(f"{path}: unrecognised IDX magic 0x{magic:08x}")


def write_idx_images(path, images):
    """Serialize [N,1,h,w] float in [0,1] (or uint8) as an IDX image file."""
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[1] != 1:
        raise ValueError("expected [N,1,h,w]")
    if images.dtype != np.uint8:
        images = np.round(images * 255.0).astype(np.uint8)
    n, _, h, w = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_MAGIC_IMAGES, n, h, w))
        f.write(images.tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_MAGIC_LABELS, labels.shape[0]))
        f.write(labels.astype(np.uint8).tobytes())


def read_cifar10(path):
    """Parse one CIFAR-10 binary batch: 3073-byte records of one label byte
    plus 3072 pixel bytes (R,G,B planes row-major). Returns (images, labels)."""
    with _open_maybe_gz(path) as f:
        raw = f.read()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD != 0:
        raise FormatError(
            f"{path}: size {len(raw)} is not a multiple of {CIFAR_RECORD}")
    buf = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = buf[:, 0].astype(np.int64)
    images = buf[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / np.float32(255.0)
    return images, labels


def write_cifar10(path, images, labels):
    images = np.asarray(images)
    if images.dtype != np.uint8:
        images = np.round(images * 255.0).astype(np.uint8)
    labels = np.asarray(labels).astype(np.uint8)
    recs = np.concatenate(
        [labels[:, None], images.reshape(images.shape[0], -1)], axis=1)
    with open(path, "wb") as f:
        f.write(recs.tobytes())


def _find_file(root, names):
    for name in names:
        for cand in (root / name, root / (name + ".gz")):
            if cand.exists():
                return cand
    raise FileNotFoundError(
        f"none of {names} found under {root}")


def load_mnist(root, split="train"):
    """Load the IDX pair for one split from a directory."""
    root = Path(root)
    prefix = "train" if split == "train" else "t10k"
    images = read_idx(_find_file(root, [f"{prefix}-images-idx3-ubyte",
                                        f"{prefix}-images.idx3-ubyte"]))
    labels = read_idx(_find_file(root, [f"{prefix}-labels-idx1-ubyte",
                                        f"{prefix}-labels.idx1-ubyte"]))
    return Dataset(images, labels, "mnist", split)


def load_cifar10(root, split="train"):
    root = Path(root)
    sub = root / "cifar-10-batches-bin"
    base = sub if sub.exists() else root
    if split == "train":
        parts = [read_cifar10(_find_file(base, [f"data_batch_{i}.bin"]))
                 for i in range(1, 6)]
        images = np.concatenate([p[0] for p in parts])
        labels = np.concatenate([p[1] for p in parts])
    else:
        images, labels = read_cifar10(_find_file(base, ["test_batch.bin"]))
    return Dataset(images, labels, "cifar10", split)


def load_dataset(name, root, split="train"):
    if name == "mnist":
        return load_mnist(root, split)
    if name == "cifar10":
        return load_cifar10(root, split)
    raise ValueError(f"unknown dataset {name!r}")


def channel_stats(images):
    """Per-channel mean/std over a [N,c,h,w] stack (population std).

    The checked-in CIFAR10_MEAN/STD constants were produced by this
    computation over the full training set.
    """
    imgs = np.asarray(images, dtype=np.float64)
    mean = imgs.mean(axis=(0, 2, 3))
    std = imgs.std(axis=(0, 2, 3))
    return tuple(mean.tolist()), tuple(std.tolist())


def default_augment(dataset_name):
    if dataset_name == "mnist":
        return AugmentSpec(hflip=False, normalize=(MNIST_MEAN, MNIST_STD))
    if dataset_name == "cifar10":
        return AugmentSpec(hflip=True, normalize=(CIFAR10_MEAN, CIFAR10_STD))
    raise ValueError(f"unknown dataset {dataset_name!r}")


def normalize_only(spec: AugmentSpec):
    """Evaluation-time variant: normalization without randomness."""
    return AugmentSpec(hflip=False, rotate_deg=(0.0, 0.0),
                       normalize=spec.normalize if spec else None)


def _rng_for(seed, domain, *key):
    ss = np.random.SeedSequence(seed, spawn_key=(domain,) + tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def _normalize(images, normalize):
    """(images - mean) / std per channel, for one [c,h,w] image or a
    [n,c,h,w] batch."""
    if normalize is None:
        return images
    mean, std = normalize
    channels = images.shape[-3]
    if not len(mean) == len(std) == channels:
        raise FormatError(
            f"normalize has {len(mean)} means and {len(std)} stds for an "
            f"image of {channels} channels")
    mean = np.asarray(mean, dtype=images.dtype).reshape(-1, 1, 1)
    std = np.asarray(std, dtype=images.dtype).reshape(-1, 1, 1)
    return (images - mean) / std


def augment(image, spec: AugmentSpec, rng_key, seed=0):
    """Randomly flip/rotate one [c,h,w] image, then normalize.

    rng_key is (epoch, sample index); together with the global seed it
    fully determines the output, independent of scheduling. The generator
    is built only when spec draws from it.
    """
    lo, hi = spec.rotate_deg
    rng = (_rng_for(seed, _DOMAIN_AUGMENT, *rng_key)
           if spec.hflip or hi > lo else None)
    out = image
    if spec.hflip and rng.random() < 0.5:
        out = out[:, :, ::-1]
    angle = float(rng.uniform(lo, hi)) if hi > lo else float(lo)
    if angle != 0.0:
        out = ndimage.rotate(out, angle, axes=(2, 1), reshape=False, order=1,
                             mode="constant", cval=0.0, prefilter=False)
    out = np.ascontiguousarray(out, dtype=image.dtype)
    return _normalize(out, spec.normalize)


@dataclass
class Batch:
    images: np.ndarray
    labels: np.ndarray
    indices: np.ndarray  # positions within the dataset, pre-shuffle


def _assemble(ds, idx, spec, epoch, seed):
    """The batch of dataset positions idx: where spec flips or rotates any
    image, each image goes through augment on its own; the stack is then
    normalized at once."""
    if spec is None:
        return Batch(ds.images[idx], ds.labels[idx], idx)
    if spec.hflip or any(spec.rotate_deg):
        geometric = replace(spec, normalize=None)
        images = np.stack([augment(ds.images[i], geometric, (epoch, int(i)),
                                   seed) for i in idx])
    else:
        images = ds.images[idx]
    return Batch(_normalize(images, spec.normalize), ds.labels[idx], idx)


def batches(ds: Dataset, batch_size, seed=0, epoch=0, augment_spec=None,
            shuffle=True, prefetch=False):
    """Iterate over the dataset in deterministic epoch-keyed order.

    The final partial batch is kept. With prefetch, a one-worker executor
    assembles up to 4 batches ahead; the batch stream is identical either
    way. An exception in the worker is raised in the consumer by the
    failed batch's future, and closing the iterator early cancels the
    batches not yet started and joins the worker.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(ds)
    if shuffle:
        order = _rng_for(seed, _DOMAIN_SHUFFLE, epoch).permutation(n)
    else:
        order = np.arange(n)
    chunks = [order[i:i + batch_size] for i in range(0, n, batch_size)]
    if not prefetch:
        for idx in chunks:
            yield _assemble(ds, idx, augment_spec, epoch, seed)
        return

    # one worker assembles the batches in order; while a batch is being
    # consumed at most 4 more are submitted. _assemble is looked up at
    # each submit, so a patched module attribute is honoured
    with ThreadPoolExecutor(1, thread_name_prefix="biasloss-prefetch") as ex:
        ahead = deque()
        try:
            for idx in chunks:
                ahead.append(ex.submit(_assemble, ds, idx, augment_spec,
                                       epoch, seed))
                if len(ahead) > 4:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()
        finally:
            for f in ahead:
                f.cancel()


# ---------------------------------------------------------------------------
# synthetic datasets (pipeline checks without external downloads)

def make_synthetic(kind, n, seed=0, split="train"):
    """Class-structured random images in MNIST or CIFAR-10 geometry.

    Each class is an oriented Gaussian ridge template plus noise and a
    small random shift; linearly separable enough that a compact model
    learns it within an epoch or two.
    """
    if kind == "mnist":
        c, h, w, classes = 1, 28, 28, 10
    elif kind == "cifar10":
        c, h, w, classes = 3, 32, 32, 10
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    rng = _rng_for(seed, 0x5E, 0 if split == "train" else 1)
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    templates = []
    for k in range(classes):
        theta = np.pi * k / classes
        u = (xx - cx) * np.cos(theta) + (yy - cy) * np.sin(theta)
        v = -(xx - cx) * np.sin(theta) + (yy - cy) * np.cos(theta)
        ridge = np.exp(-(u / (0.45 * w)) ** 2 - (v / (0.12 * h)) ** 2)
        bump = np.exp(-((xx - cx - 0.25 * w * np.cos(2 * theta)) ** 2
                        + (yy - cy - 0.25 * h * np.sin(2 * theta)) ** 2)
                      / (0.02 * h * w))
        templates.append(0.8 * ridge + 0.6 * bump)
    labels = rng.integers(0, classes, size=n)
    images = np.empty((n, c, h, w), dtype=np.float32)
    for i in range(n):
        t = templates[labels[i]]
        dy, dx = rng.integers(-2, 3, size=2)
        img = np.roll(np.roll(t, dy, axis=0), dx, axis=1)
        noise = rng.normal(0.0, 0.08, size=(c, h, w))
        chan = img[None, :, :] * rng.uniform(0.7, 1.0, size=(c, 1, 1))
        images[i] = np.clip(chan + noise, 0.0, 1.0)
    images = np.round(images * 255.0).astype(np.uint8).astype(np.float32) / 255.0
    return Dataset(images, labels.astype(np.int64), f"synthetic-{kind}", split)


def write_synthetic_mnist(root, n_train=512, n_test=256, seed=0):
    """Materialize a synthetic dataset in genuine IDX files."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for split, n, prefix in (("train", n_train, "train"), ("test", n_test, "t10k")):
        ds = make_synthetic("mnist", n, seed=seed, split=split)
        write_idx_images(root / f"{prefix}-images-idx3-ubyte", ds.images)
        write_idx_labels(root / f"{prefix}-labels-idx1-ubyte", ds.labels)
    return root


def write_synthetic_cifar10(root, n_train=512, n_test=256, seed=0):
    """Materialize a synthetic dataset in genuine CIFAR-10 binary batches.

    The n_train images are split in order over the five data_batch files,
    none of them empty (read_cifar10 rejects an empty file), so n_train
    must be at least 5.
    """
    if n_train < 5:
        raise ValueError(f"n_train must be >= 5, one image per data_batch "
                         f"file, got {n_train}")
    root = Path(root)
    sub = root / "cifar-10-batches-bin"
    sub.mkdir(parents=True, exist_ok=True)
    train = make_synthetic("cifar10", n_train, seed=seed, split="train")
    for i, (images, labels) in enumerate(zip(
            np.array_split(train.images, 5), np.array_split(train.labels, 5))):
        write_cifar10(sub / f"data_batch_{i + 1}.bin", images, labels)
    test = make_synthetic("cifar10", n_test, seed=seed, split="test")
    write_cifar10(sub / "test_batch.bin", test.images, test.labels)
    return root
